package coord

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drms/internal/ckpt"
	"drms/internal/obs"
	"drms/internal/pfs"
)

// metric reads one counter/gauge from the default registry (0 when the
// metric has never been touched).
func metric(name string) float64 {
	v, _ := obs.Default.Value(name)
	return v
}

// TestVersionedAPIRejectsStaleHandle is the regression test for the
// optimistic-concurrency contract: a mutation through a handle whose
// state version has been overtaken must fail with ErrStaleHandle (and
// count the rejection), while the handle returned by the overtaking
// mutation chains.
func TestVersionedAPIRejectsStaleHandle(t *testing.T) {
	_, rc, _ := newCluster(t, 2)
	var gate atomic.Bool
	p := appParams{n: 16, iters: 12, ckEvery: 4, gateAt: 8, gate: &gate}
	if err := rc.Launch(p.spec("vapi"), 2, false); err != nil {
		t.Fatal(err)
	}

	h, info, err := rc.OpenApp("vapi")
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusRunning || h.Version != info.Version {
		t.Fatalf("open: status=%s handle v%d info v%d", info.Status, h.Version, info.Version)
	}
	if _, _, err := rc.OpenApp("nosuch"); err == nil {
		t.Fatal("OpenApp on an unknown application must fail")
	}

	before := metric("drms_coord_stale_handle_rejections_total")
	h2, err := rc.CheckpointApp(h)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Version <= h.Version {
		t.Fatalf("mutation did not advance the version: %d -> %d", h.Version, h2.Version)
	}

	// The original handle observed state that no longer exists.
	if _, err := rc.StopApp(h); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("stale StopApp error = %v, want ErrStaleHandle", err)
	}
	if _, err := rc.KillApp(h); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("stale KillApp error = %v, want ErrStaleHandle", err)
	}
	if d := metric("drms_coord_stale_handle_rejections_total") - before; d != 2 {
		t.Fatalf("stale rejection counter moved by %v, want 2", d)
	}

	// The fresh handle chains.
	h3, err := rc.StopApp(h2)
	if err != nil {
		t.Fatalf("chained StopApp through the returned handle: %v", err)
	}
	if h3.Version <= h2.Version {
		t.Fatalf("chained mutation did not advance the version: %d -> %d", h2.Version, h3.Version)
	}
	gate.Store(true)
	st, err := rc.WaitApp("vapi")
	if err != nil || st != StatusFinished {
		t.Fatalf("settle: %s, %v", st, err)
	}
	// Terminal state: mutations now fail on status, not staleness.
	h4, _, err := rc.OpenApp("vapi")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.StopApp(h4); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("StopApp on a finished application = %v, want ErrNotRunning", err)
	}
}

// TestSubscribeAfterCloseIsStillborn hammers Subscribe against a
// concurrent Close and verifies no pump goroutine outlives the
// coordinator: a subscription that loses the race is stillborn (its
// channel never receives) instead of leaking.
func TestSubscribeAfterCloseIsStillborn(t *testing.T) {
	before := runtime.NumGoroutine()
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	for round := 0; round < 20; round++ {
		rc, err := NewRCOpts(fs, RCOptions{HBTimeout: hbTimeout})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for j := 0; j < 25; j++ {
					_, cancel := rc.Subscribe()
					if j%2 == 0 {
						cancel() // the other half rely on Close's sweep
					}
				}
			}(g)
		}
		close(start)
		rc.Close() // races the subscribers above
		wg.Wait()

		// Post-close subscription: must be stillborn, not leaked.
		ch, cancel := rc.Subscribe()
		cancel()
		select {
		case e := <-ch:
			t.Fatalf("stillborn subscription delivered %v", e)
		default:
		}
	}
	waitFor(t, "subscriber pumps to drain after Close", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// TestLeaseEpochRejectsStaleClaimant is the regression test for
// lease-epoch reconciliation on the coordinator side: a hello whose
// epoch is below a live same-node registration's must be rejected (a
// new claimant racing a surviving TC, or a delayed duplicate of an
// older lineage), while the surviving lineage's own higher-epoch
// reconnects keep superseding.
func TestLeaseEpochRejectsStaleClaimant(t *testing.T) {
	_, rc, tcs := newCluster(t, 1)
	// Bump the survivor's epoch past a fresh claimant's by reconnecting
	// the lineage to the same coordinator.
	if err := tcs[0].Reconnect(rc.Addr()); err != nil {
		t.Fatal(err)
	}
	liveEpoch := func() int64 {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		st := rc.tcs[0]
		if st == nil || !st.alive {
			return -1
		}
		return st.epoch
	}
	waitFor(t, "epoch-2 registration", func() bool { return liveEpoch() == 2 })

	// The stale claimant says hello with a lower epoch.
	before := metric("drms_coord_epoch_rejections_total")
	conn, err := net.Dial("tcp", rc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%s\n", `{"kind":"hello","node":0,"epoch":1}`); err != nil {
		t.Fatal(err)
	}
	// Rejection closes the claimant's connection; wait for that EOF so the
	// server has definitely processed the hello before asserting.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server wrote to a TC connection; protocol change?")
	}
	if d := metric("drms_coord_epoch_rejections_total") - before; d != 1 {
		t.Fatalf("epoch rejection counter moved by %v, want 1", d)
	}
	if e := liveEpoch(); e != 2 {
		t.Fatalf("survivor lost its slot to a stale claimant: live epoch = %d, want 2", e)
	}
	// The survivor's next reconnect (epoch 3) supersedes as before.
	if err := tcs[0].Reconnect(rc.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "epoch-3 registration", func() bool { return liveEpoch() == 3 })
}

// TestSyncFlushDurableUnderConcurrentFlushes is the regression test for
// snapshot/commit ordering: the state store numbers generations at
// commit time, so a synchronous flush racing the persister (or other
// sync flushers) must not let an OLDER snapshot commit under a NEWER
// generation — recovery would then restore stale state. The test storms
// concurrent SyncState calls against a stream of versioned mutations,
// takes one final synchronous flush, crashes the coordinator while the
// storm is still in flight, and requires the recovered state to be at
// least as new as that final flush guaranteed.
func TestSyncFlushDurableUnderConcurrentFlushes(t *testing.T) {
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	opt := RCOptions{HBTimeout: hbTimeout, StatePrefix: "rcstate.flush"}
	rc, err := NewRCOpts(fs, opt)
	if err != nil {
		t.Fatal(err)
	}
	tcs, err := Pool(rc, 1, hbInterval, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	var gate atomic.Bool
	p := appParams{n: 8, iters: 8, ckEvery: 4, gateAt: 4, gate: &gate}
	spec := p.spec("flushrace")
	if err := rc.Launch(spec, 1, false); err != nil {
		t.Fatal(err)
	}

	// The storm: synchronous flushes racing the persister and each other.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rc.SyncState()
				}
			}
		}()
	}

	// Versioned mutations advance the state under the storm.
	h, _, err := rc.OpenApp("flushrace")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if h, err = rc.CheckpointApp(h); err != nil {
			t.Fatal(err)
		}
	}
	want := h.Version
	// This flush returns only once every mutation above is durable.
	if _, ok := rc.SyncState(); !ok {
		t.Fatal("self-checkpointing not active")
	}
	rem := rc.Crash() // mid-storm: racing flushes may still be in flight
	close(stop)
	wg.Wait()

	rc2, report, err := RecoverRC(fs, opt, rem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc2.Close)
	if len(report.Readopted) != 1 {
		t.Fatalf("readopted = %v, want [flushrace]", report.Readopted)
	}
	info, ok := rc2.App("flushrace")
	// Re-adoption itself advances the version once; anything below the
	// pre-crash watermark means a stale snapshot landed in a newer
	// generation and recovery restored old state.
	if !ok || info.Version < want {
		t.Fatalf("recovered state version %d, want >= %d (stale snapshot committed over a newer one)",
			info.Version, want)
	}

	for _, tc := range tcs {
		if err := tc.Reconnect(rc2.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	gate.Store(true)
	if st, err := rc2.WaitApp("flushrace"); err != nil || st != StatusFinished {
		t.Fatalf("settle after recovery: %s, %v", st, err)
	}
}

// TestRCCrashRestartReadoptsRunningApp is the acceptance walk of the
// self-checkpointing control plane: the coordinator dies mid-supervision,
// a successor restores the persisted tables from the state store, proves
// through the lease that the surviving incarnation is the one on record,
// and re-adopts it without a restart. The TCs rejoin the successor with a
// bumped connection epoch, the application finishes with a clean
// checksum, and the spurious-restart count — the incarnation — stays 0.
func TestRCCrashRestartReadoptsRunningApp(t *testing.T) {
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	opt := RCOptions{HBTimeout: hbTimeout, StatePrefix: "rcstate"}
	rc, err := NewRCOpts(fs, opt)
	if err != nil {
		t.Fatal(err)
	}
	tcs, err := Pool(rc, 3, hbInterval, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	var gate atomic.Bool
	out := make(chan float64, 1)
	p := appParams{n: 24, iters: 12, ckEvery: 4, gateAt: 6, gate: &gate, result: out}
	spec := p.spec("adopt")
	spec.Recovery = fastPolicy(3)
	if err := rc.Launch(spec, 3, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first checkpoint", func() bool { return ckpt.Exists(fs, "adopt") })

	dropBefore := metric("drms_coord_terminal_events_dropped_total")
	rem := rc.Crash()

	opt.Catalog = func(name string) (AppSpec, bool) {
		if name == "adopt" {
			return spec, true
		}
		return AppSpec{}, false
	}
	rc2, report := recoverWatched(t, fs, opt, rem)
	for _, tc := range tcs {
		if err := tc.Reconnect(rc2.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if tcs[0].Epoch() != 2 {
		t.Fatalf("reconnected TC epoch = %d, want 2", tcs[0].Epoch())
	}

	if report.Gen < 0 {
		t.Fatal("recovery found no snapshot generation")
	}
	if len(report.Readopted) != 1 || report.Readopted[0] != "adopt" {
		t.Fatalf("readopted = %v, want [adopt]", report.Readopted)
	}
	if len(report.Resumed) != 0 || len(report.Orphaned) != 0 {
		t.Fatalf("resumed = %v, orphaned = %v; want none", report.Resumed, report.Orphaned)
	}
	info, ok := rc2.App("adopt")
	if !ok || info.Status != StatusRunning || info.Incarnation != 0 {
		t.Fatalf("after re-adoption: %+v", info)
	}

	// The incarnation never noticed its coordinator died: open the gate
	// and it runs to completion.
	gate.Store(true)
	st, err := rc2.WaitApp("adopt")
	if err != nil || st != StatusFinished {
		t.Fatalf("settle on successor: %s, %v", st, err)
	}
	got, want := <-out, cleanChecksum(t, 3, 24, 12, 4)
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("checksum %v, want %v", got, want)
	}
	info, _ = rc2.App("adopt")
	if info.Incarnation != 0 {
		t.Fatalf("spurious restart: incarnation = %d, want 0", info.Incarnation)
	}
	// Settle frees the re-adopted pool on the successor's tables.
	waitFor(t, "nodes freed on the successor", func() bool {
		return len(rc2.AvailableNodes()) == 3
	})
	if d := metric("drms_coord_terminal_events_dropped_total") - dropBefore; d != 0 {
		t.Fatalf("terminal events dropped: %v", d)
	}
	evs := drainEvents(rc2)
	if countEvents(evs, EventAppReadopted) != 1 {
		t.Fatalf("want one app-readopted event, got %v", evs)
	}
	if countEvents(evs, EventAppFinished) != 1 {
		t.Fatalf("want one app-finished event, got %v", evs)
	}
}

// TestRCCrashMidRecoveryResumesSupervision crashes the coordinator while
// it is *itself* recovering an application (the incarnation died with a
// processor; the supervisor was in its backoff window). The successor
// finds the persisted recovering status, no surviving incarnation, and
// resumes the cycle through the catalog-rebound spec: the application
// restarts from its checkpoint exactly once.
func TestRCCrashMidRecoveryResumesSupervision(t *testing.T) {
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	opt := RCOptions{HBTimeout: hbTimeout, StatePrefix: "rcstate"}
	rc, err := NewRCOpts(fs, opt)
	if err != nil {
		t.Fatal(err)
	}
	tcs, err := Pool(rc, 4, hbInterval, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	var gate atomic.Bool
	out := make(chan float64, 1)
	p := appParams{n: 24, iters: 12, ckEvery: 4, gateAt: 6, gate: &gate, result: out}
	spec := p.spec("relay")
	// A wide backoff window so the crash reliably lands mid-recovery.
	spec.Recovery = &RecoveryPolicy{Budget: 4, Backoff: 400 * time.Millisecond,
		BackoffMax: 400 * time.Millisecond}
	if err := rc.Launch(spec, 3, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first checkpoint", func() bool { return ckpt.Exists(fs, "relay") })

	info, _ := rc.App("relay")
	victim := info.Nodes[0]
	tcs[victim].Fail()
	waitFor(t, "supervisor to engage", func() bool {
		info, ok := rc.App("relay")
		return ok && info.Status == StatusRecovering
	})
	if _, ok := rc.SyncState(); !ok {
		t.Fatal("self-checkpointing not active")
	}
	rem := rc.Crash() // mid-backoff: the incarnation is already dead

	opt.Catalog = func(name string) (AppSpec, bool) {
		if name == "relay" {
			return spec, true
		}
		return AppSpec{}, false
	}
	rc2, report := recoverWatched(t, fs, opt, rem)
	for i, tc := range tcs {
		if i == victim {
			continue
		}
		if err := tc.Reconnect(rc2.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if len(report.Resumed) != 1 || report.Resumed[0] != "relay" {
		t.Fatalf("resumed = %v, want [relay]", report.Resumed)
	}
	if len(report.Readopted) != 0 {
		t.Fatalf("readopted = %v, want none (the incarnation died)", report.Readopted)
	}

	gate.Store(true)
	st, err := rc2.WaitApp("relay")
	if err != nil || st != StatusFinished {
		t.Fatalf("settle after resumed recovery: %s, %v", st, err)
	}
	got, want := <-out, cleanChecksum(t, 3, 24, 12, 4)
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("checksum %v, want %v", got, want)
	}
	info, _ = rc2.App("relay")
	if info.Incarnation < 1 {
		t.Fatalf("incarnation = %d, want >= 1 (a real restart happened)", info.Incarnation)
	}
	evs := drainEvents(rc2)
	if countEvents(evs, EventAppRecovered) < 1 {
		t.Fatalf("want an app-recovered event from the resumed cycle, got %v", evs)
	}
}

// TestChaosSoakControlPlane is the seeded control-plane soak: waves of
// short supervised applications run while the coordinator is repeatedly
// crashed and recovered from its own checkpoints. Every application must
// finish exactly once (incarnation 0 — coordinator deaths are not
// application failures), and the terminal-event drop counter must not
// move. DRMS_SOAK_APPS scales the run up for the nightly soak target.
func TestChaosSoakControlPlane(t *testing.T) {
	appCount, crashBudget := 8, 2
	if s := os.Getenv("DRMS_SOAK_APPS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("bad DRMS_SOAK_APPS %q", s)
		}
		appCount, crashBudget = v, v/3+2
	}
	rng := rand.New(rand.NewSource(7)) // seeded: reruns replay the same schedule

	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	var mu sync.Mutex
	specs := make(map[string]AppSpec)
	opt := RCOptions{HBTimeout: hbTimeout, StatePrefix: "rcstate.soak",
		Catalog: func(name string) (AppSpec, bool) {
			mu.Lock()
			defer mu.Unlock()
			s, ok := specs[name]
			return s, ok
		}}
	rc, err := NewRCOpts(fs, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Close() }()
	tcs, err := Pool(rc, 4, hbInterval, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dropBefore := metric("drms_coord_terminal_events_dropped_total")

	launched, crashed := 0, 0
	for launched < appCount {
		waitFor(t, "free processors for the next wave", func() bool {
			return len(rc.AvailableNodes()) > 0
		})
		// Launch a seeded-random slice of the remaining applications.
		wave := rng.Intn(len(rc.AvailableNodes())) + 1
		for ; wave > 0 && launched < appCount; wave-- {
			name := fmt.Sprintf("soak/app%03d", launched)
			s := appParams{n: 8, iters: 10, ckEvery: 5}.spec(name)
			s.Recovery = fastPolicy(3)
			mu.Lock()
			specs[name] = s
			mu.Unlock()
			if err := rc.Launch(s, 1, false); err != nil {
				t.Fatal(err)
			}
			launched++
		}
		// Crash the coordinator under the wave (seeded coin, but always
		// consume the budget before the work runs out).
		if crashed < crashBudget && (rng.Intn(2) == 0 || launched >= appCount) {
			crashed++
			rem := rc.Crash()
			next, _, err := RecoverRC(fs, opt, rem)
			if err != nil {
				t.Fatalf("crash %d: %v", crashed, err)
			}
			for _, tc := range tcs {
				if err := tc.Reconnect(next.Addr()); err != nil {
					t.Fatal(err)
				}
			}
			rc = next
		}
	}

	// Every application settles finished with incarnation 0: coordinator
	// crashes caused no spurious restarts, and no terminal truth was lost
	// across the generations.
	for i := 0; i < appCount; i++ {
		name := fmt.Sprintf("soak/app%03d", i)
		st, err := rc.WaitApp(name)
		if err != nil || st != StatusFinished {
			t.Fatalf("%s settled %s, %v", name, st, err)
		}
		info, ok := rc.App(name)
		if !ok || info.Incarnation != 0 {
			t.Fatalf("%s incarnation = %d, want 0 (spurious restart)", name, info.Incarnation)
		}
	}
	if d := metric("drms_coord_terminal_events_dropped_total") - dropBefore; d != 0 {
		t.Fatalf("terminal events dropped during the soak: %v", d)
	}
	if crashed == 0 {
		t.Fatal("the soak never crashed the coordinator")
	}
}

// TestRecoverRCRefusesGobEraStore: a coordinator store an earlier build
// wrote — gob metadata over a legacy delta chain of gob images — is
// refused with ckpt.ErrLegacyFormat, quarantining nothing and touching no
// file, until drmsfsck -repair has rewritten both its metadata
// (ckpt.Upgrade) and its head (StateStore.Upgrade); then the coordinator
// recovers from the upgraded head, generation 3.
func TestRecoverRCRefusesGobEraStore(t *testing.T) {
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	if err := fs.LoadFile("../ckpt/testdata/rcstate_deltas.pfs"); err != nil {
		t.Fatal(err)
	}
	opt := RCOptions{HBTimeout: hbTimeout, StatePrefix: "rcstate"}
	refused := func(stage string) {
		t.Helper()
		before := fs.List("")
		if rc, _, err := RecoverRC(fs, opt, nil); !errors.Is(err, ckpt.ErrLegacyFormat) {
			if rc != nil {
				rc.Close()
			}
			t.Fatalf("RecoverRC of a %s store: %v, want ckpt.ErrLegacyFormat", stage, err)
		}
		if after := fs.List(""); !slices.Equal(before, after) {
			t.Fatalf("a refused recovery changed the %s store: %v -> %v", stage, before, after)
		}
	}
	refused("gob-era")
	for _, g := range (ckpt.Rotation{Base: "rcstate"}).Generations(fs) {
		if up, err := ckpt.Upgrade(fs, g, 0); !up || err != nil {
			t.Fatalf("upgrade %s: upgraded %v, %v", g, up, err)
		}
	}
	refused("metadata-upgraded")
	if g, q, err := (&ckpt.StateStore{Base: "rcstate"}).Upgrade(fs); g != 3 || len(q) != 0 || err != nil {
		t.Fatalf("StateStore.Upgrade: gen %d quarantined %v, %v", g, q, err)
	}
	rc, report, err := RecoverRC(fs, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	if report.Gen != 3 || len(report.Quarantined) != 0 {
		t.Fatalf("recovered from generation %d, quarantined %v; want the upgraded head, 3, and nothing", report.Gen, report.Quarantined)
	}
}
