package coord

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"text/tabwriter"
	"time"

	"drms/internal/ckpt"
	"drms/internal/drms"
	"drms/internal/msg"
	"drms/internal/pfs"
)

// The application state machine (transition.go): every (status, input)
// pair, the crash-after-announce drill for every synchronous row, the
// synchronous-commit budget of launch/recovery/settle, and the rendered
// table DESIGN.md carries.

// allInputs and allStatuses span the table's key space.
var (
	allInputs = []input{inLaunch, inExitClean, inExitError, inExitFailure, inRelaunched,
		inBudgetExhausted, inShuttingDown, inPartialRecovered, inResized, inCheckpointArmed,
		inStopRequested, inKillRequested, inReadopted, inResumed, inOrphaned}
	allStatuses = []AppStatus{"", StatusRunning, StatusRecovering,
		StatusFinished, StatusTerminated, StatusFailed, StatusStalled}
)

// syncOnlyRC builds a coordinator whose persister never runs: only the
// synchronous commits of the transition function reach the state store,
// so what a test finds on storage is exactly what persist-then-announce
// guarantees and nothing an asynchronous flush happened to add.
func syncOnlyRC(t *testing.T, fs *pfs.System, opt RCOptions) *RC {
	t.Helper()
	rc, err := newRC(fs, opt)
	if err != nil {
		t.Fatal(err)
	}
	close(rc.persistDone) // nothing for shutdown to wait for
	go rc.acceptLoop()
	t.Cleanup(rc.Close)
	return watch(rc)
}

// nextEvent returns the next event of one of the kinds, skipping others.
func nextEvent(t *testing.T, rc *RC, kinds ...EventKind) Event {
	t.Helper()
	deadline := time.After(20 * time.Second)
	for {
		select {
		case e := <-eventsOf(rc):
			if slices.Contains(kinds, e.Kind) {
				return e
			}
		case <-deadline:
			t.Fatalf("no %v event", kinds)
		}
	}
}

// TestTransitionTable drives every (status, input) pair — each under
// and outside supervision — through RC.transition against an
// independent statement of the rules: a legal pair lands in the stated
// status with the version up by one, the stated announcement and the
// stated persist mode; an illegal pair is refused with the record, the
// dirty mark and the event stream untouched.
func TestTransitionTable(t *testing.T) {
	type key struct {
		from AppStatus
		in   input
	}
	type outcome struct {
		next  AppStatus
		event EventKind
		sync  bool
	}
	want := map[key]outcome{}
	for _, s := range []AppStatus{"", StatusFinished, StatusTerminated, StatusFailed, StatusStalled} {
		want[key{s, inLaunch}] = outcome{StatusRunning, EventAppStarted, true}
	}
	want[key{StatusRunning, inExitClean}] = outcome{StatusFinished, EventAppFinished, true}
	want[key{StatusRunning, inExitError}] = outcome{StatusFailed, EventAppFinished, true}
	want[key{StatusRunning, inExitFailure}] = outcome{StatusTerminated, EventAppKilled, true}
	want[key{StatusRecovering, inRelaunched}] = outcome{StatusRunning, EventAppRecovered, true}
	want[key{StatusRecovering, inBudgetExhausted}] = outcome{StatusStalled, EventAppStalled, true}
	want[key{StatusRecovering, inShuttingDown}] = outcome{StatusTerminated, "", false}
	want[key{StatusRunning, inPartialRecovered}] = outcome{StatusRunning, EventAppPartialRecovery, true}
	want[key{StatusRunning, inResized}] = outcome{StatusRunning, EventAppResized, true}
	want[key{StatusRunning, inCheckpointArmed}] = outcome{StatusRunning, "", false}
	want[key{StatusRunning, inStopRequested}] = outcome{StatusRunning, "", false}
	want[key{StatusRunning, inKillRequested}] = outcome{StatusRunning, "", false}
	for _, s := range []AppStatus{StatusRunning, StatusRecovering} {
		want[key{s, inReadopted}] = outcome{StatusRunning, EventAppReadopted, false}
		want[key{s, inResumed}] = outcome{StatusRecovering, "", false}
		want[key{s, inOrphaned}] = outcome{StatusTerminated, "", false}
	}
	// The one guarded row: a failure of a supervised application.
	wantSupervised := map[key]outcome{
		{StatusRunning, inExitFailure}: {StatusRecovering, EventAppKilled, false},
	}

	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	// Rows with an effect deliver it to a live incarnation.
	release := make(chan struct{})
	defer close(release)
	handle, err := drms.Start(drms.Config{Tasks: 1, FS: fs}, func(*drms.Task) error {
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const sentinel EventKind = "test-sentinel"
	legal := 0
	for _, from := range allStatuses {
		for _, in := range allInputs {
			for _, supervised := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/%v", from, in, supervised)
				rc := syncOnlyRC(t, fs, RCOptions{StatePrefix: "table/" + name})
				spec := AppSpec{Name: "app"}
				if supervised {
					spec.Recovery = &RecoveryPolicy{}
				}
				fresh := func() *appState {
					return &appState{spec: spec, handle: handle, done: make(chan struct{}),
						unwound: make(chan struct{}), appRecord: appRecord{Version: 7}}
				}
				var before *appState
				if from != "" {
					before = fresh()
					before.Status = from
					rc.apps["app"] = before
				}
				info, err := rc.transition("app", nil, in, func(old *appState, _ *Event) error {
					if old != before {
						t.Errorf("%s: apply got record %p, want %p", name, old, before)
					}
					if in == inLaunch {
						rc.apps["app"] = fresh()
					}
					return nil
				})
				rc.emit(Event{Kind: sentinel})
				var announced []EventKind
				for e := nextEvent(t, rc, sentinel, EventAppStarted, EventAppFinished, EventAppKilled,
					EventAppRecovered, EventAppStalled, EventAppPartialRecovery, EventAppResized,
					EventAppReadopted); e.Kind != sentinel; e = <-eventsOf(rc) {
					announced = append(announced, e.Kind)
				}

				o, ok := want[key{from, in}]
				if s, guarded := wantSupervised[key{from, in}]; guarded && supervised {
					o = s
				}
				if !ok {
					if err == nil {
						t.Errorf("%s: illegal pair accepted", name)
					}
					if from != StatusRunning && from != "" && !errors.Is(err, ErrNotRunning) {
						t.Errorf("%s: refusal %v does not say ErrNotRunning", name, err)
					}
					if before != nil && (before.Status != from || before.Version != 7) {
						t.Errorf("%s: refused, yet the record moved to %s v%d", name, before.Status, before.Version)
					}
					if rc.apps["app"] != before || rc.dirty || len(announced) != 0 {
						t.Errorf("%s: refused, yet installed=%v dirty=%v announced=%v",
							name, rc.apps["app"] != before, rc.dirty, announced)
					}
					continue
				}
				legal++
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				if info.Status != o.next || info.Version != 8 {
					t.Errorf("%s: landed %s v%d, want %s v8", name, info.Status, info.Version, o.next)
				}
				if o.event == "" && len(announced) != 0 || o.event != "" && !slices.Equal(announced, []EventKind{o.event}) {
					t.Errorf("%s: announced %v, want %q", name, announced, o.event)
				}
				// Without a persister the dirty mark clears only through the
				// rule's own synchronous commit.
				if rc.dirty == o.sync {
					t.Errorf("%s: dirty=%v after the transition, want sync=%v", name, rc.dirty, o.sync)
				}
				if r := ruleFor(from, in, supervised); r == nil || r.sync != o.sync || r.next != o.next || r.event != o.event {
					t.Errorf("%s: table row %+v disagrees with %+v", name, r, o)
				}
				select {
				case <-rc.apps["app"].done:
					if !o.next.settled() {
						t.Errorf("%s: done closed on a live status", name)
					}
				default:
					if o.next.settled() {
						t.Errorf("%s: settled %s without closing done", name, o.next)
					}
				}
				rc.Close()
			}
		}
	}
	if rows := 2 * (len(want)); legal != rows {
		t.Fatalf("%d legal (status, input, supervision) cases ran, want %d", legal, rows)
	}
}

// stallingSpec is a supervised application whose first two incarnations
// are killed by an injected fault almost at once; the third parks at its
// gate. With fastPolicy(3) the two restarts cost 1 and 2 (the second
// cannot beat the first's restart point), so the third failure finds
// the budget empty.
func stallingSpec(name string, gate *atomic.Bool) AppSpec {
	spec := appParams{n: 16, iters: 1 << 20, ckEvery: 4, gateAt: 2, gate: gate}.spec(name)
	spec.Recovery = fastPolicy(3)
	spec.FaultNext = func(incarnation, tasks int) *msg.FaultSpec {
		if incarnation >= 2 {
			return nil
		}
		return &msg.FaultSpec{Victim: tasks - 1, AtOp: 8}
	}
	return spec
}

func killApp(t *testing.T, rc *RC, name string) {
	t.Helper()
	h, _, err := rc.OpenApp(name)
	if err == nil {
		_, err = rc.KillApp(h)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestStalledPersistedBeforeAnnounced: a stalled settle is terminal, so
// it is committed before it is announced. With the flush mutex held the
// supervisor's give-up is in the tables but not observable as an event;
// once it is, a coordinator crash finds it on storage — stalled with the
// first cause, nothing to re-adopt, resume or announce again. (The
// parent announced it on the asynchronous doorbell alone: the event
// arrived with the state dirty, and the successor resumed the recovery.)
func TestStalledPersistedBeforeAnnounced(t *testing.T) {
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	var gate atomic.Bool
	spec := stallingSpec("doomed", &gate)
	opt := RCOptions{HBTimeout: hbTimeout, StatePrefix: "rcstate.stall",
		Catalog: func(string) (AppSpec, bool) { return spec, true }}
	rc, err := NewRCOpts(fs, opt)
	if err != nil {
		t.Fatal(err)
	}
	watch(rc)
	tcs, err := Pool(rc, 2, hbInterval, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Launch(spec, 2, false); err != nil {
		t.Fatal(err)
	}
	nextEvent(t, rc, EventAppRecovered)
	nextEvent(t, rc, EventAppRecovered) // the last restart the budget pays for

	rc.flushMu.Lock()
	killApp(t, rc, "doomed")
	waitFor(t, "the supervisor to give up", func() bool {
		info, _ := rc.App("doomed")
		return info.Status == StatusStalled
	})
	for held := time.After(100 * time.Millisecond); held != nil; {
		select {
		case e := <-eventsOf(rc):
			if e.Kind == EventAppStalled {
				t.Fatal("app-stalled announced while its commit was still held back")
			}
		case <-held:
			held = nil
		}
	}
	rc.flushMu.Unlock()
	stalled := nextEvent(t, rc, EventAppStalled)

	rem := rc.Crash()
	rc2, report := recoverWatched(t, fs, opt, rem)
	if n := len(report.Readopted) + len(report.Resumed) + len(report.Orphaned); n != 0 {
		t.Fatalf("a stalled application was reconciled: %+v", report)
	}
	info, ok := rc2.App("doomed")
	if !ok || info.Status != StatusStalled || info.Err != stalled.Detail ||
		!strings.Contains(info.Err, "budget exhausted") ||
		!strings.Contains(info.Err, msg.ErrKilled.Error()) && !strings.Contains(info.Err, msg.ErrRevoked.Error()) {
		t.Fatalf("recovered %+v, want stalled with the announced first-cause chain %q", info, stalled.Detail)
	}
	if st, err := rc2.WaitApp("doomed"); st != StatusStalled || err == nil {
		t.Fatalf("WaitApp on the successor = %s, %v", st, err)
	}
	if n := countEvents(drainEvents(rc2), EventAppStalled); n != 0 {
		t.Fatalf("the successor announced app-stalled %d more times", n)
	}
	for _, tc := range tcs {
		tc.Stop()
	}
}

// crashAndRecover crashes rc right now and returns its successor with
// the surviving TCs rejoined.
func crashAndRecover(t *testing.T, fs *pfs.System, opt RCOptions, rc *RC, tcs []*TC) (*RC, *RecoveryReport) {
	t.Helper()
	next, report := recoverWatched(t, fs, opt, rc.Crash())
	for _, tc := range tcs {
		if err := tc.Reconnect(next.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	return next, report
}

// TestCrashAfterEveryAnnouncement is the crash-after-announce drill, the
// control-plane slice of the crash-point enumeration: for every
// synchronous row, wait for its announcement, crash the coordinator at
// once, and require the successor's record to say what was announced.
// No persister runs on the crashed side, so an announcement that got out
// ahead of its commit would find stale state on the successor.
func TestCrashAfterEveryAnnouncement(t *testing.T) {
	drill := func(name string, nodes int, run func(t *testing.T, fs *pfs.System, opt RCOptions, rc *RC, tcs []*TC)) {
		t.Run(name, func(t *testing.T) {
			fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
			opt := RCOptions{HBTimeout: hbTimeout, StatePrefix: "rcstate.drill"}
			rc := syncOnlyRC(t, fs, opt)
			tcs, err := Pool(rc, nodes, hbInterval, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			run(t, fs, opt, rc, tcs)
			for _, tc := range tcs {
				tc.Stop()
			}
		})
	}
	settledAs := func(t *testing.T, rc *RC, report *RecoveryReport, name string, want AppStatus) AppInfo {
		t.Helper()
		info, ok := rc.App(name)
		if !ok || info.Status != want {
			t.Fatalf("successor holds %+v, want %s as announced", info, want)
		}
		if n := len(report.Readopted) + len(report.Resumed) + len(report.Orphaned); n != 0 {
			t.Fatalf("a settled application was reconciled: %+v", report)
		}
		return info
	}

	drill("launch", 2, func(t *testing.T, fs *pfs.System, opt RCOptions, rc *RC, tcs []*TC) {
		var gate atomic.Bool
		spec := appParams{n: 16, iters: 8, ckEvery: 4, gateAt: 2, gate: &gate}.spec("a")
		if err := rc.Launch(spec, 2, false); err != nil {
			t.Fatal(err)
		}
		nextEvent(t, rc, EventAppStarted)
		rc, report := crashAndRecover(t, fs, opt, rc, tcs)
		if info, _ := rc.App("a"); !slices.Equal(report.Readopted, []string{"a"}) || info.Status != StatusRunning || info.Tasks != 2 {
			t.Fatalf("after app-started: %+v, readopted %v", info, report.Readopted)
		}
		gate.Store(true)
		nextEvent(t, rc, EventAppFinished)
	})
	drill("exit-clean", 1, func(t *testing.T, fs *pfs.System, opt RCOptions, rc *RC, tcs []*TC) {
		if err := rc.Launch(appParams{n: 4, iters: 2, ckEvery: 1}.spec("a"), 1, false); err != nil {
			t.Fatal(err)
		}
		nextEvent(t, rc, EventAppFinished)
		rc, report := crashAndRecover(t, fs, opt, rc, tcs)
		settledAs(t, rc, report, "a", StatusFinished)
	})
	drill("exit-error", 1, func(t *testing.T, fs *pfs.System, opt RCOptions, rc *RC, tcs []*TC) {
		spec := AppSpec{Name: "a", Body: func(*drms.Task) error { return errors.New("logic error") }}
		if err := rc.Launch(spec, 1, false); err != nil {
			t.Fatal(err)
		}
		e := nextEvent(t, rc, EventAppFinished)
		rc, report := crashAndRecover(t, fs, opt, rc, tcs)
		if info := settledAs(t, rc, report, "a", StatusFailed); info.Err != e.Detail {
			t.Fatalf("recovered error %q, announced %q", info.Err, e.Detail)
		}
	})
	drill("exit-failure", 2, func(t *testing.T, fs *pfs.System, opt RCOptions, rc *RC, tcs []*TC) {
		var gate atomic.Bool
		spec := appParams{n: 16, iters: 8, ckEvery: 4, gateAt: 2, gate: &gate}.spec("a")
		if err := rc.Launch(spec, 2, false); err != nil {
			t.Fatal(err)
		}
		killApp(t, rc, "a")
		nextEvent(t, rc, EventAppKilled)
		rc, report := crashAndRecover(t, fs, opt, rc, tcs)
		settledAs(t, rc, report, "a", StatusTerminated)
	})
	drill("relaunched", 2, func(t *testing.T, fs *pfs.System, opt RCOptions, rc *RC, tcs []*TC) {
		var gate atomic.Bool
		spec := stallingSpec("a", &gate)
		opt.Catalog = func(string) (AppSpec, bool) { return spec, true }
		if err := rc.Launch(spec, 2, false); err != nil {
			t.Fatal(err)
		}
		nextEvent(t, rc, EventAppRecovered)
		e := nextEvent(t, rc, EventAppRecovered)
		rc, report := crashAndRecover(t, fs, opt, rc, tcs)
		if info, _ := rc.App("a"); !slices.Equal(report.Readopted, []string{"a"}) || info.Status != StatusRunning ||
			info.Incarnation != 2 || info.Tasks != e.Tasks {
			t.Fatalf("after app-recovered %+v: %+v, report %+v", e, info, report)
		}
		h, _ := rc.handleOf("a")
		h.RequestStop()
		gate.Store(true)
		nextEvent(t, rc, EventAppFinished)
	})
	drill("budget-exhausted", 2, func(t *testing.T, fs *pfs.System, opt RCOptions, rc *RC, tcs []*TC) {
		var gate atomic.Bool
		spec := stallingSpec("a", &gate)
		opt.Catalog = func(string) (AppSpec, bool) { return spec, true }
		if err := rc.Launch(spec, 2, false); err != nil {
			t.Fatal(err)
		}
		nextEvent(t, rc, EventAppRecovered)
		nextEvent(t, rc, EventAppRecovered)
		killApp(t, rc, "a")
		e := nextEvent(t, rc, EventAppStalled)
		rc, report := crashAndRecover(t, fs, opt, rc, tcs)
		if info := settledAs(t, rc, report, "a", StatusStalled); info.Err != e.Detail {
			t.Fatalf("recovered error %q, announced %q", info.Err, e.Detail)
		}
	})
	drill("resized", 4, func(t *testing.T, fs *pfs.System, opt RCOptions, rc *RC, tcs []*TC) {
		var hold atomic.Bool
		spec := appParams{n: 32, iters: 8, ckEvery: 2, holdAt: 4, hold: &hold}.spec("a")
		if err := rc.Launch(spec, 2, false); err != nil {
			t.Fatal(err)
		}
		h, _, _ := rc.OpenApp("a")
		if _, err := rc.ResizeApp(h, 4); err != nil {
			t.Fatal(err)
		}
		e := nextEvent(t, rc, EventAppResized)
		rc, report := crashAndRecover(t, fs, opt, rc, tcs)
		if info, _ := rc.App("a"); !slices.Equal(report.Readopted, []string{"a"}) || info.Tasks != e.Tasks || len(info.Nodes) != 4 {
			t.Fatalf("after app-resized %+v: %+v, report %+v", e, info, report)
		}
		hold.Store(true)
		nextEvent(t, rc, EventAppFinished)
	})
	drill("partial-recovered", 4, func(t *testing.T, fs *pfs.System, opt RCOptions, rc *RC, tcs []*TC) {
		var gate atomic.Bool
		spec := appParams{n: 24, iters: 12, ckEvery: 2, gateAt: 5, gate: &gate}.spec("a")
		spec.Recovery, spec.Partial, spec.Replicas = fastPolicy(10), true, 1
		opt.Catalog = func(string) (AppSpec, bool) { return spec, true }
		if err := rc.Launch(spec, 3, false); err != nil {
			t.Fatal(err)
		}
		waitCommitted(t, rc, "a")
		info, _ := rc.App("a")
		lost := info.Nodes[1]
		tcs[lost].Fail()
		nextEvent(t, rc, EventAppPartialRecovery)
		rc, report := crashAndRecover(t, fs, opt, rc, slices.Delete(slices.Clone(tcs), lost, lost+1))
		info, _ = rc.App("a")
		if !slices.Equal(report.Readopted, []string{"a"}) || info.Incarnation != 0 ||
			len(info.Nodes) != 3 || slices.Contains(info.Nodes, lost) {
			t.Fatalf("after app-partial-recovery (node %d lost): %+v, report %+v", lost, info, report)
		}
		gate.Store(true)
		nextEvent(t, rc, EventAppFinished)
	})
}

// TestSyncCommitsPerTransition pins the synchronous-commit budget of the
// paths a supervised recovery runs: a launch commits once before
// app-started, a failure entering recovery commits nothing, the relaunch
// commits once before app-recovered, and the settle once before
// app-finished. With no persister running, the snapshot counter moves
// only by those.
func TestSyncCommitsPerTransition(t *testing.T) {
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	rc := syncOnlyRC(t, fs, RCOptions{HBTimeout: hbTimeout, StatePrefix: "rcstate.count"})
	tcs, err := Pool(rc, 2, hbInterval, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var gate atomic.Bool
	spec := appParams{n: 16, iters: 8, ckEvery: 4, gateAt: 6, gate: &gate}.spec("counted")
	spec.Recovery = fastPolicy(5)
	spec.Recovery.Backoff = 300 * time.Millisecond // the counter is read inside it

	base := coordStateSnapshots.Value()
	step := func(what string, want uint64) {
		t.Helper()
		if got := coordStateSnapshots.Value() - base; got != want {
			t.Fatalf("%s: %d snapshot commits so far, want %d", what, got, want)
		}
	}
	if err := rc.Launch(spec, 2, false); err != nil {
		t.Fatal(err)
	}
	nextEvent(t, rc, EventAppStarted)
	step("launch", 1)
	waitFor(t, "first checkpoint", func() bool { return ckpt.Exists(fs, "counted") })
	killApp(t, rc, "counted")
	nextEvent(t, rc, EventAppRecovering)
	step("failure -> recovering", 1)
	nextEvent(t, rc, EventAppRecovered)
	step("relaunch", 2)
	gate.Store(true)
	nextEvent(t, rc, EventAppFinished)
	step("settle", 3)
	for _, tc := range tcs {
		tc.Stop()
	}
}

// TestNoSubscriberRetainsNothing: a coordinator nobody subscribed to has
// no stream of its own, so a hundred settled applications' terminal
// events — exempt from every queue bound — are held by no one.
func TestNoSubscriberRetainsNothing(t *testing.T) {
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	rc, err := NewRCOpts(fs, RCOptions{HBTimeout: hbTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	tcs, err := Pool(rc, 1, hbInterval, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := appParams{n: 4, iters: 1, ckEvery: 1}.spec("quick")
	for i := 0; i < 100; i++ {
		if err := rc.Launch(spec, 1, false); err != nil {
			t.Fatal(err)
		}
		if st, err := rc.WaitApp("quick"); st != StatusFinished || err != nil {
			t.Fatalf("run %d settled %s, %v", i, st, err)
		}
	}
	rc.subMu.Lock()
	subs := len(rc.subs)
	rc.subMu.Unlock()
	if subs != 0 {
		t.Fatalf("%d subscriptions on a coordinator nobody subscribed to", subs)
	}
	// A late subscriber starts from now: nothing was kept for it.
	ch, cancel := rc.Subscribe()
	defer cancel()
	select {
	case e := <-ch:
		t.Fatalf("late subscriber received retained %+v", e)
	case <-time.After(50 * time.Millisecond):
	}
	// Each relaunch carried the state version on: a handle opened on an
	// earlier run of the name can never match a later one.
	if info, _ := rc.App("quick"); info.Version != 200 {
		t.Fatalf("version %d after 100 launch+settle pairs, want 200", info.Version)
	}
	tcs[0].Stop()
}

// TestRecoverLoadsParentEncodedStore commits the gob records every
// earlier coordinator wrote under "rc" and "app/<name>", schema 1 —
// without going through this tree's snapshotLocked — as an upgraded
// store holds them, and loads it: those records still decode.
func TestRecoverLoadsParentEncodedStore(t *testing.T) {
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	records := map[string][]byte{
		"rc": gobRecord(t, 1, rcRecord{LeaseSeq: 41}),
		"app/done": gobRecord(t, 1, appRecord{Name: "done", Status: StatusFinished, Tasks: 2,
			Nodes: []int{0, 1}, Version: 9, Lease: 40}),
		"app/gave-up": gobRecord(t, 1, gaveUpRecord),
		"app/lost": gobRecord(t, 1, appRecord{Name: "lost", Status: StatusRunning, Tasks: 2,
			Nodes: []int{2, 3}, Version: 3, Lease: 41}),
	}
	store := &ckpt.StateStore{Base: "rcstate.parent"}
	if _, err := store.Commit(fs, records); err != nil {
		t.Fatal(err)
	}
	rc, report, err := RecoverRC(fs, RCOptions{HBTimeout: hbTimeout, StatePrefix: "rcstate.parent"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	if rc.leaseSeq != 41 || !slices.Equal(report.Orphaned, []string{"lost"}) ||
		len(report.Readopted)+len(report.Resumed) != 0 {
		t.Fatalf("leaseSeq %d, report %+v", rc.leaseSeq, report)
	}
	for name, want := range map[string]AppInfo{
		"done":    {Name: "done", Status: StatusFinished, Tasks: 2, Nodes: []int{0, 1}, Version: 9},
		"gave-up": {Name: "gave-up", Status: StatusStalled, Tasks: 1, Err: "coord: recovery budget exhausted", Incarnation: 3, Version: 21},
		"lost":    {Name: "lost", Status: StatusTerminated, Tasks: 2, Nodes: []int{2, 3}, Version: 4},
	} {
		got, _ := rc.App(name)
		if name == "lost" {
			got.Err = "" // the orphan's own explanation
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s loaded as %+v, want %+v", name, got, want)
		}
	}
	// What this tree writes is a frame of the same record.
	rc.mu.Lock()
	snap := rc.snapshotLocked()
	rc.mu.Unlock()
	var rec appRecord
	if err := decodeRecord(snap["app/gave-up"], &rec); err != nil || !bytes.HasPrefix(snap["app/gave-up"], []byte(recordMagic)) ||
		rec.Status != StatusStalled || rec.FirstCause != "msg: task killed" || rec.Attempts != 3 {
		t.Fatalf("re-encoded record %+v, %v", rec, err)
	}
	if err := decodeRecord(gobRecord(t, 2, rcRecord{}), &rcRecord{}); err == nil {
		t.Fatal("a schema 2 gob record decoded")
	}
}

// renderTransitions prints the table the way DESIGN.md §3e carries it.
func renderTransitions() string {
	set := func(from []AppStatus) string {
		var names []string
		for _, s := range from {
			if s == "" {
				s = "(none)"
			}
			names = append(names, string(s))
		}
		return strings.Join(names, "|")
	}
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "status\tinput\tnext\tannounces\tpersist")
	for _, r := range transitions {
		in, event, persist := string(r.in), string(r.event), "async"
		if r.supervised {
			in += " [supervised]"
		}
		if event == "" {
			event = "-"
		}
		if r.sync {
			persist = "sync"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", set(r.from), in, r.next, event, persist)
	}
	w.Flush()
	var out []string
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		out = append(out, strings.TrimRight(line, " "))
	}
	return strings.Join(out, "\n") + "\n"
}

// renderSyncPoints lists the synchronous rows the way §3i carries them.
func renderSyncPoints() string {
	var b strings.Builder
	for _, r := range transitions {
		if r.sync {
			fmt.Fprintf(&b, "%s -> %s, before %s\n", r.in, r.next, r.event)
		}
	}
	return b.String()
}

// TestDesignCarriesTheTransitionTable holds DESIGN.md to the code: the
// fenced block after each marker must be the rendered table.
func TestDesignCarriesTheTransitionTable(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for marker, want := range map[string]string{
		"<!-- transition-table -->": renderTransitions(),
		"<!-- sync-points -->":      renderSyncPoints(),
	} {
		_, rest, found := strings.Cut(string(doc), marker+"\n```\n")
		got, _, closed := strings.Cut(rest, "```\n")
		if !found || !closed {
			t.Fatalf("DESIGN.md has no fenced block after %s", marker)
		}
		if got != want {
			t.Errorf("DESIGN.md block after %s is stale; it must read:\n%s", marker, want)
		}
	}
}
