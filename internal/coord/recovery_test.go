package coord

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"drms/internal/ckpt"
	"drms/internal/dist"
	"drms/internal/drms"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/stream"
)

// fastPolicy is a recovery policy tuned for tests: tiny backoffs, a
// budget large enough that only deliberate livelock exhausts it.
func fastPolicy(budget int) *RecoveryPolicy {
	return &RecoveryPolicy{Budget: budget, Backoff: 5 * time.Millisecond,
		BackoffMax: 40 * time.Millisecond}
}

// drainEvents collects everything currently queued on the test's
// subscription (watch). Delivery is asynchronous (a pump goroutine moves events
// from the per-subscriber queue to the channel), so quiescence is "no
// event for a beat", not "channel empty right now".
func drainEvents(rc *RC) []Event {
	var evs []Event
	for {
		select {
		case e := <-eventsOf(rc):
			evs = append(evs, e)
		case <-time.After(100 * time.Millisecond):
			return evs
		}
	}
}

func countEvents(evs []Event, kind EventKind) int {
	n := 0
	for _, e := range evs {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestSupervisorRecoversAcrossShrinkAndGrow drives the tentpole flow
// end to end with real TC failures: a supervised application loses two
// processors at once and is automatically restarted on the survivors
// (shrink); the failed processors are "repaired" (fresh TCs) and a
// further failure grows the next incarnation back onto the full pool.
// The final checksum must equal a fault-free run's, bitwise.
func TestSupervisorRecoversAcrossShrinkAndGrow(t *testing.T) {
	const n, iters, ckEvery = 24, 12, 4
	want := cleanChecksum(t, 4, n, iters, ckEvery)

	fs, rc, tcs := newCluster(t, 4)
	var gate atomic.Bool
	out := make(chan float64, 1)
	p := appParams{n: n, iters: iters, ckEvery: ckEvery, gateAt: 6, gate: &gate, result: out}
	spec := p.spec("job")
	spec.Recovery = fastPolicy(10)
	// Use every available processor on each restart: shrink when nodes
	// are down, grow when they come back.
	spec.Recovery.Pool = func(available, previous int) int { return available }

	if err := rc.Launch(spec, 4, false); err != nil {
		t.Fatal(err)
	}
	// Let it checkpoint (iterations 0 and 4), then take out half the pool.
	waitFor(t, "first checkpoint", func() bool { return ckpt.Exists(fs, "job") })
	tcs[1].Fail()
	tcs[2].Fail()

	// Shrink: a new incarnation on the 2 survivors.
	waitFor(t, "shrunk incarnation", func() bool {
		info, ok := rc.App("job")
		return ok && info.Status == StatusRunning && info.Incarnation >= 1 && info.Tasks == 2
	})

	// Repair the failed processors, then fail another one: the next
	// incarnation grows onto everything available.
	tc1b, err := StartTC(rc.Addr(), 1, hbInterval)
	if err != nil {
		t.Fatal(err)
	}
	stopOnCleanup(t, tc1b)
	tc2b, err := StartTC(rc.Addr(), 2, hbInterval)
	if err != nil {
		t.Fatal(err)
	}
	stopOnCleanup(t, tc2b)
	waitFor(t, "repaired pool", func() bool {
		return len(rc.AvailableNodes()) == 2 // nodes 1, 2 free; 0, 3 busy
	})
	inc1 := 0
	if info, ok := rc.App("job"); ok {
		inc1 = info.Incarnation
	}
	tcs[3].Fail()
	waitFor(t, "grown incarnation", func() bool {
		info, ok := rc.App("job")
		return ok && info.Status == StatusRunning && info.Incarnation > inc1 && info.Tasks == 3
	})

	// Open the gate and let it converge.
	gate.Store(true)
	status, err := rc.WaitApp("job")
	if err != nil {
		t.Fatalf("supervised app ended with error: %v", err)
	}
	if status != StatusFinished {
		t.Fatalf("supervised app ended %s, want finished", status)
	}
	if got := <-out; got != want {
		t.Fatalf("post-recovery checksum %v != fault-free %v", got, want)
	}

	evs := drainEvents(rc)
	if countEvents(evs, EventAppRecovered) < 2 {
		t.Fatalf("saw %d app-recovered events, want >= 2 (%v)", countEvents(evs, EventAppRecovered), evs)
	}
	sawShrink, sawGrow := false, false
	for _, e := range evs {
		if e.Kind != EventAppRecovered {
			continue
		}
		if e.Tasks == 2 {
			sawShrink = true
		}
		if e.Tasks == 3 {
			sawGrow = true
		}
		if e.Gen < 0 {
			t.Fatalf("recovery restarted from scratch despite checkpoints: %+v", e)
		}
		if e.TTR <= 0 {
			t.Fatalf("app-recovered event carries no time-to-recovery: %+v", e)
		}
	}
	if !sawShrink || !sawGrow {
		t.Fatalf("recovered pools missing shrink/grow (shrink=%v grow=%v): %v", sawShrink, sawGrow, evs)
	}
	tcs[0].Stop()
	tc1b.Stop()
	tc2b.Stop()
	tcs[3].Stop()
}

// flipStoredArray inverts the first n stored bytes of one array of the
// committed checkpoint under prefix, found through its metadata: the
// piece file of the array's first location. pfs.WriteAt creates a
// missing file, so damaging a guessed name would corrupt nothing and the
// test would wait for a quarantine that never comes.
func flipStoredArray(t *testing.T, fs *pfs.System, prefix, arr string, n int) {
	t.Helper()
	m, err := ckpt.ReadMeta(fs, prefix, 0)
	if err != nil {
		t.Fatal(err)
	}
	file, off := prefix+".arr."+arr, int64(0)
	for i, am := range m.Arrays {
		if am.Name == arr {
			l := m.PieceLocs[i][0]
			if _, g, _ := ckpt.GenOf(prefix); l.Gen != g || l.Where != ckpt.TierPFS {
				t.Fatalf("first piece of %q is not in %s's own files: %+v", arr, prefix, l)
			}
			file, off = fmt.Sprintf("%s.p%d", file, l.Task), l.FileOff
		}
	}
	b := make([]byte, n)
	if err := fs.ReadAt(0, file, b, off); err != nil {
		t.Fatalf("array %q of %s is not stored in %s: %v", arr, prefix, file, err)
	}
	for i := range b {
		b[i] ^= 0xff
	}
	if err := fs.WriteAt(0, file, b, off); err != nil {
		t.Fatal(err)
	}
}

// TestSupervisorQuarantinesCorruptNewestGeneration corrupts the newest
// committed generation while the application is alive, then fails a
// processor: the supervisor must quarantine the corrupt generation,
// restart from the older one, and still converge to the fault-free
// checksum.
func TestSupervisorQuarantinesCorruptNewestGeneration(t *testing.T) {
	const n, iters, ckEvery = 24, 12, 3
	want := cleanChecksum(t, 3, n, iters, ckEvery)

	fs, rc, tcs := newCluster(t, 3)
	var gate atomic.Bool
	out := make(chan float64, 1)
	p := appParams{n: n, iters: iters, ckEvery: ckEvery, gateAt: 6, gate: &gate, result: out}
	spec := p.spec("job")
	spec.Recovery = fastPolicy(10)

	if err := rc.Launch(spec, 3, false); err != nil {
		t.Fatal(err)
	}
	// The app checkpoints at iterations 0, 3, 6 and then parks at the
	// gate; Keep >= 2 leaves the iteration-3 and iteration-6 generations
	// (g1, g2) on storage. Wait for g2 — the checkpoint right before the
	// gate — so the corruption target really is the newest generation and
	// no further checkpoint can land until the gate opens.
	var newest string
	waitFor(t, "gate-adjacent generation", func() bool {
		g, p, ok := (ckpt.Rotation{Base: "job"}).Latest(fs)
		newest = p
		return ok && g >= 2
	})
	flipStoredArray(t, fs, newest, "u", 4)

	// Fail a processor while the app is parked at the gate: recovery must
	// quarantine the corrupt newest generation and fall back to the older
	// one. Only once the fallback incarnation is running does the gate
	// open (opening first would let the app outrun the failure and commit
	// a fresh, clean generation that hides the corrupt one).
	tcs[0].Fail()
	waitFor(t, "fallback incarnation", func() bool {
		info, ok := rc.App("job")
		return ok && info.Status == StatusRunning && info.Incarnation >= 1
	})
	gate.Store(true)

	status, err := rc.WaitApp("job")
	if err != nil {
		t.Fatalf("supervised app ended with error: %v", err)
	}
	if status != StatusFinished {
		t.Fatalf("supervised app ended %s, want finished", status)
	}
	if got := <-out; got != want {
		t.Fatalf("post-quarantine checksum %v != fault-free %v", got, want)
	}

	// The corrupt generation is quarantined on storage and was reported.
	if len(fs.List(newest+".bad.")) == 0 {
		t.Fatalf("no quarantined files under %s.bad.", newest)
	}
	evs := drainEvents(rc)
	if countEvents(evs, EventCkptQuarantined) == 0 {
		t.Fatalf("no ckpt-quarantined event: %v", evs)
	}
	for _, e := range evs {
		if e.Kind == EventAppRecovered && e.Detail == "" {
			t.Fatalf("app-recovered without detail: %+v", e)
		}
	}
	tcs[1].Stop()
	tcs[2].Stop()
}

// TestSupervisorStallsOnBudgetExhaustion injects a fault into every
// incarnation so the application can never outrun its killer: the
// supervisor must give up with StatusStalled — bounded, never a hang —
// and the terminal error must chain back to the first root cause.
func TestSupervisorStallsOnBudgetExhaustion(t *testing.T) {
	_, rc, tcs := newCluster(t, 2)
	p := appParams{n: 16, iters: 1 << 20, ckEvery: 4}
	spec := p.spec("doomed")
	spec.Recovery = fastPolicy(3)
	spec.FaultNext = func(incarnation, tasks int) *msg.FaultSpec {
		// Kill rank tasks-1 almost immediately, every single time.
		return &msg.FaultSpec{Victim: tasks - 1, AtOp: 8}
	}

	if err := rc.Launch(spec, 2, false); err != nil {
		t.Fatal(err)
	}
	status, settled, err := rc.WaitAppSettled("doomed", 30*time.Second)
	if !settled {
		t.Fatal("doomed app never settled: budget exhaustion must not hang")
	}
	if status != StatusStalled {
		t.Fatalf("status = %s, want stalled", status)
	}
	if err == nil {
		t.Fatal("stalled app carries no error")
	}
	if !errors.Is(err, msg.ErrKilled) && !errors.Is(err, msg.ErrRevoked) {
		t.Fatalf("stalled error does not chain to the root cause: %v", err)
	}

	evs := drainEvents(rc)
	if countEvents(evs, EventAppStalled) != 1 {
		t.Fatalf("want exactly one app-stalled event: %v", evs)
	}
	// Non-advancing restarts cost 1+StallPenalty, so a budget of 3 must
	// stall in at most 2 attempts — the livelock fast path.
	for _, e := range evs {
		if e.Kind == EventAppStalled && e.Attempt > 2 {
			t.Fatalf("stalled only after %d attempts; livelock should burn the budget faster", e.Attempt)
		}
	}
	for _, tc := range tcs {
		tc.Stop()
	}
}

// TestWaitAppSettledObservesRecoveryNotTerminal pins the waiter
// semantics across a recovery: a client parked on WaitAppSettled while
// the application dies and is autonomously restarted must not see a
// terminal "terminated" status — it times out still-unsettled and a
// status query shows the new incarnation running.
func TestWaitAppSettledObservesRecoveryNotTerminal(t *testing.T) {
	fs, rc, tcs := newCluster(t, 3)
	var gate atomic.Bool
	p := appParams{n: 16, iters: 1 << 20, ckEvery: 4, gateAt: 8, gate: &gate}
	spec := p.spec("phoenix")
	spec.Recovery = fastPolicy(10)

	if err := rc.Launch(spec, 3, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first checkpoint", func() bool { return ckpt.Exists(fs, "phoenix") })

	type settle struct {
		status  AppStatus
		settled bool
		err     error
	}
	parked := make(chan settle, 1)
	go func() {
		st, ok, err := rc.WaitAppSettled("phoenix", 3*time.Second)
		parked <- settle{st, ok, err}
	}()
	time.Sleep(30 * time.Millisecond) // let the waiter park on the settle channel
	tcs[2].Fail()

	got := <-parked
	if got.settled {
		t.Fatalf("waiter settled with %s during a recovery; the app is not terminal", got.status)
	}
	if got.status == StatusTerminated || got.status == StatusFailed || got.status == StatusStalled {
		t.Fatalf("waiter observed terminal status %s across a recovery", got.status)
	}
	info, ok := rc.App("phoenix")
	if !ok || info.Incarnation < 1 {
		t.Fatalf("no new incarnation after recovery: %+v", info)
	}
	if info.Status != StatusRunning && info.Status != StatusRecovering {
		t.Fatalf("app status after recovery = %s", info.Status)
	}

	// Let it finish for a clean shutdown.
	gate.Store(true)
	waitFor(t, "phoenix running", func() bool {
		i, ok := rc.App("phoenix")
		return ok && i.Status == StatusRunning
	})
	if h, ok := rc.handleOf("phoenix"); ok {
		h.RequestStop()
	}
	rc.WaitApp("phoenix")
	tcs[0].Stop()
	tcs[1].Stop()
}

// chaosApp is the soak workload: a deterministic element-wise iteration
// with a barrier per step, checkpointing every ckEvery iterations. It
// reports restore completion and can arm the incarnation's fault
// injector from the checkpoint stream's piece hook (the mid-checkpoint
// kill). The update is element-wise, so any kill schedule and any pool
// sizes must converge to the fault-free checksum.
type chaosApp struct {
	n, iters, ckEvery int
	gateAt            int // park (collectively) at this iteration until gate opens; 0 = no gate
	result            chan float64

	gate      atomic.Bool                        // opens the gateAt park
	restored  atomic.Bool                        // a restore completed (any incarnation)
	armWanted atomic.Bool                        // arm the injector at the next streamed piece
	ft        atomic.Pointer[msg.FaultTransport] // current incarnation's injector
}

func (ca *chaosApp) stream() stream.Options {
	return stream.Options{PieceBytes: 64, PieceHook: func(int, int64, []byte) {
		if ca.armWanted.Load() {
			if f := ca.ft.Load(); f != nil {
				f.Arm()
			}
		}
	}}
}

func (ca *chaosApp) body(t *drms.Task) error {
	g := rangeset.NewSlice(rangeset.Span(0, ca.n-1))
	d, err := dist.Block(g, []int{t.Tasks()})
	if err != nil {
		return err
	}
	u, err := drms.NewArray[float64](t, "u", d)
	if err != nil {
		return err
	}
	iter := 0
	t.Register("iter", &iter)
	u.Fill(func(c []int) float64 { return float64(c[0]) })

	for {
		if iter%ca.ckEvery == 0 {
			status, _, err := t.ReconfigCheckpoint("soak")
			if err != nil {
				return err
			}
			if status == drms.Restored {
				ca.restored.Store(true)
			}
		}
		if iter >= ca.iters {
			break
		}
		if ca.gateAt > 0 && iter == ca.gateAt {
			// Collective gate (see appParams): all ranks agree on the flag
			// so an asynchronous flip cannot diverge their control flow.
			for {
				open := 0.0
				if ca.gate.Load() {
					open = 1
				}
				agree, err := t.Comm().AllreduceF64(open, math.Min)
				if err != nil {
					return err
				}
				if agree == 1 {
					break
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
		u.Assigned().Each(rangeset.ColMajor, func(c []int) {
			u.Set(c, u.At(c)*0.75+float64(c[0])*0.01)
		})
		iter++
		if err := t.Comm().Barrier(); err != nil {
			return err
		}
	}
	s, err := u.Checksum()
	if err != nil {
		return err
	}
	if t.Rank() == 0 {
		ca.result <- s
	}
	return nil
}

// TestChaosSoakConvergesUnderRandomKills is the acceptance soak: a
// seeded schedule kills at least five ranks across incarnations —
// two real processor failures (shrinking the pool 4 -> 2), one armed
// kill mid-checkpoint-write, one kill during the recovery restore
// itself, and seeded random kills — with the pool repaired mid-run so
// recovery also grows (2 -> 4). The run must converge to the bitwise
// fault-free checksum with no hang.
func TestChaosSoakConvergesUnderRandomKills(t *testing.T) {
	// 240 iterations so an op-indexed seeded kill (AtOp <= 300) always
	// lands well before any incarnation can run to completion.
	const n, iters, ckEvery, seed = 24, 240, 3, 1234

	// The soak app parks at iteration 9 until the harness has wired the
	// mid-checkpoint killer; the fault-free reference runs ungated on an
	// unrelated pool size.
	ca := &chaosApp{n: n, iters: iters, ckEvery: ckEvery, gateAt: 9, result: make(chan float64, 1)}
	ref := &chaosApp{n: n, iters: iters, ckEvery: ckEvery, result: make(chan float64, 1)}
	if err := drms.Run(drms.Config{Tasks: 3, FS: pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})},
		ref.body); err != nil {
		t.Fatal(err)
	}
	want := <-ref.result

	fs, rc, tcs := newCluster(t, 4)
	plan := msg.NewChaosPlan(seed, 2, 120, 300) // two seeded random kills
	// The kill schedule is phased, not keyed to incarnation numbers: the
	// two real TC failures may produce one or two restarts depending on
	// detection timing, so absolute incarnation counts are not stable.
	// Phase 0 gives every restart an inert armed spec (the injector only
	// fires once the harness arms it mid-checkpoint); the first relaunch
	// after that kill is the recovery itself, killed during its restore
	// (phase 1); every later restart draws from the seeded plan.
	// FaultNext calls are serialized by the supervisor, so plain state
	// suffices.
	phase := 0
	spec := AppSpec{Name: "soak", Body: ca.body, Stream: ca.stream(),
		Recovery: fastPolicy(50), FaultNext: func(incarnation, tasks int) *msg.FaultSpec {
			if incarnation == 0 {
				// The initial incarnation dies to real TC failures below.
				return nil
			}
			if phase == 0 {
				if ca.armWanted.Load() {
					// The armed mid-checkpoint kill has fired; this launch
					// is its recovery. Kill it within the restore's first
					// collective operations.
					ca.armWanted.Store(false)
					phase = 1
					return &msg.FaultSpec{Victim: tasks / 2, AtOp: 2}
				}
				// Restarts from the initial TC failures: carry the inert
				// armed spec so whichever incarnation survives to the gate
				// hosts the mid-checkpoint killer.
				return &msg.FaultSpec{Victim: tasks - 1, AtOp: 0}
			}
			return plan.Next(tasks)
		}}
	spec.Recovery.Pool = func(available, previous int) int { return available }

	if err := rc.Launch(spec, 4, false); err != nil {
		t.Fatal(err)
	}

	// Kill #1 and #2: two processors fail while incarnation 0 computes.
	waitFor(t, "first checkpoint", func() bool { return ckpt.Exists(fs, "soak") })
	tcs[1].Fail()
	tcs[3].Fail()
	waitFor(t, "shrunk to survivors", func() bool {
		info, ok := rc.App("soak")
		return ok && info.Status == StatusRunning && info.Incarnation >= 1 && info.Tasks == 2
	})

	// Repair the pool so later incarnations can grow back to 4.
	tc1b, err := StartTC(rc.Addr(), 1, hbInterval)
	if err != nil {
		t.Fatal(err)
	}
	stopOnCleanup(t, tc1b)
	tc3b, err := StartTC(rc.Addr(), 3, hbInterval)
	if err != nil {
		t.Fatal(err)
	}
	stopOnCleanup(t, tc3b)

	// Kill #3 (mid-checkpoint): the surviving incarnation restores and
	// parks at the gate. Hand its injector to the piece hook, arm, and
	// open the gate — the next checkpoint stream kills the victim between
	// pieces, tearing the in-flight generation.
	waitFor(t, "restored incarnation", func() bool { return ca.restored.Load() })
	waitFor(t, "gated incarnation's injector", func() bool {
		h, ok := rc.handleOf("soak")
		if !ok || h.Fault() == nil {
			return false
		}
		ca.ft.Store(h.Fault())
		return true
	})
	ca.armWanted.Store(true)
	ca.gate.Store(true)

	// Kills #4 (during recovery) and #5, #6 (seeded random) drive
	// themselves through FaultNext. The plan's budget then runs dry and
	// the final incarnation converges.
	status, err := rc.WaitApp("soak")
	if err != nil {
		t.Fatalf("soak ended with error: %v", err)
	}
	if status != StatusFinished {
		t.Fatalf("soak ended %s, want finished", status)
	}
	if got := <-ca.result; got != want {
		t.Fatalf("chaos checksum %v != fault-free %v", got, want)
	}
	if k := plan.Kills(); k != 2 {
		t.Fatalf("seeded plan issued %d kills, want 2", k)
	}

	evs := drainEvents(rc)
	recovered := countEvents(evs, EventAppRecovered)
	if recovered < 5 {
		t.Fatalf("only %d recoveries; the schedule kills at least 5 times", recovered)
	}
	sawShrink, sawGrow := false, false
	prevTasks := 4
	for _, e := range evs {
		if e.Kind != EventAppRecovered {
			continue
		}
		if e.Tasks < prevTasks {
			sawShrink = true
		}
		if e.Tasks > prevTasks {
			sawGrow = true
		}
		prevTasks = e.Tasks
	}
	if !sawShrink || !sawGrow {
		t.Fatalf("soak never exercised shrink+grow (shrink=%v grow=%v): %v", sawShrink, sawGrow, evs)
	}
	info, _ := rc.App("soak")
	if info.Incarnation < 5 {
		t.Fatalf("final incarnation %d, want >= 5", info.Incarnation)
	}

	tcs[0].Stop()
	tcs[2].Stop()
	tc1b.Stop()
	tc3b.Stop()
}

// TestRecoveredEventDetailNamesGeneration pins the event telemetry
// format loosely: an app-recovered event names its restart point.
func TestRecoveredEventDetailNamesGeneration(t *testing.T) {
	fs, rc, tcs := newCluster(t, 2)
	var gate atomic.Bool
	p := appParams{n: 16, iters: 8, ckEvery: 2, gateAt: 4, gate: &gate}
	spec := p.spec("evt")
	spec.Recovery = fastPolicy(10)
	if err := rc.Launch(spec, 2, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "checkpoint", func() bool { return ckpt.Exists(fs, "evt") })
	// Fail while the app is parked at the gate (failing after opening it
	// would race the app's completion), then release the recovered
	// incarnation.
	tcs[1].Fail()
	waitFor(t, "recovered incarnation", func() bool {
		info, ok := rc.App("evt")
		return ok && info.Status == StatusRunning && info.Incarnation >= 1
	})
	gate.Store(true)
	if st, err := rc.WaitApp("evt"); err != nil || st != StatusFinished {
		t.Fatalf("evt: %s, %v", st, err)
	}
	found := false
	for _, e := range drainEvents(rc) {
		if e.Kind == EventAppRecovered {
			found = true
			if e.Detail == "" || e.Gen < 0 {
				t.Fatalf("recovered event lacks restart point: %+v", e)
			}
			// The event names the pinned generation it restarted from
			// (it may since have been pruned by newer checkpoints).
			if want := fmt.Sprintf("evt.g%d", e.Gen); !strings.Contains(e.Detail, want) {
				t.Fatalf("recovered event detail %q does not name %s", e.Detail, want)
			}
		}
	}
	if !found {
		t.Fatal("no app-recovered event")
	}
	tcs[0].Stop()
}
