package coord

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"drms/internal/obs"
)

// The in-flight resize at the control-plane level (DESIGN.md §3k): the
// versioned ResizeApp op, the app-resized event with before/after
// counts, the per-app gauges following the new pool with no incarnation
// bump, and the autoscaler driving resizes from policy.

// TestResizeAppInFlight grows a running application 2 -> 4 and shrinks
// it back, through the versioned API: same incarnation throughout, the
// pool bookkeeping and gauges follow, and the result stays bit-exact
// with an uninterrupted run.
func TestResizeAppInFlight(t *testing.T) {
	const n, iters, ckEvery = 32, 16, 2
	want := cleanChecksum(t, 2, n, iters, ckEvery)

	_, rc, tcs := newCluster(t, 4)
	// The application parks at SOPs (hold) until both resizes are done:
	// each is carried out whenever it arms, and no SOP the second one
	// needs can be used up while the first completes.
	var hold atomic.Bool
	out := make(chan float64, 1)
	p := appParams{n: n, iters: iters, ckEvery: ckEvery, holdAt: 4, hold: &hold, result: out}
	if err := rc.Launch(p.spec("ejob"), 2, false); err != nil {
		t.Fatal(err)
	}
	h, info, err := rc.OpenApp("ejob")
	if err != nil {
		t.Fatal(err)
	}
	if info.Tasks != 2 {
		t.Fatalf("launched with %d tasks, want 2", info.Tasks)
	}
	waitCommitted(t, rc, "ejob")

	// Grow while the application runs: the resize rides its next SOP.
	h, err = rc.ResizeApp(h, 4)
	if err != nil {
		t.Fatal(err)
	}
	info, _ = rc.App("ejob")
	if info.Tasks != 4 || len(info.Nodes) != 4 || info.Incarnation != 0 ||
		info.Status != StatusRunning {
		t.Fatalf("after grow: %+v, want 4 tasks on 4 nodes, incarnation 0, running", info)
	}
	if free := rc.AvailableNodes(); len(free) != 0 {
		t.Fatalf("free nodes %v after growing onto the whole pool", free)
	}
	// The per-app gauge follows the resize — no relaunch re-registered it.
	if v, ok := obs.Default.Value(`drms_coord_app_tasks{app="ejob"}`); !ok || v != 4 {
		t.Fatalf(`drms_coord_app_tasks{app="ejob"} = %v (ok=%v), want 4`, v, ok)
	}

	// Shrink back: the trailing processors return to the free pool.
	h, err = rc.ResizeApp(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	info, _ = rc.App("ejob")
	if info.Tasks != 2 || len(info.Nodes) != 2 || info.Incarnation != 0 {
		t.Fatalf("after shrink: %+v, want 2 tasks on 2 nodes, incarnation 0", info)
	}
	if free := rc.AvailableNodes(); len(free) != 2 {
		t.Fatalf("free nodes %v after shrink, want 2", free)
	}
	if v, ok := obs.Default.Value(`drms_coord_app_tasks{app="ejob"}`); !ok || v != 2 {
		t.Fatalf(`drms_coord_app_tasks{app="ejob"} = %v (ok=%v), want 2`, v, ok)
	}

	hold.Store(true)
	status, werr := rc.WaitApp("ejob")
	if werr != nil || status != StatusFinished {
		t.Fatalf("app ended %s err=%v, want finished", status, werr)
	}
	if got := <-out; got != want {
		t.Fatalf("checksum %v != uninterrupted %v", got, want)
	}
	// The rank-0 SOP gauge tracks the post-resize count within the same
	// incarnation (the app's final SOPs ran at 2 tasks).
	if v, ok := obs.Default.Value("drms_rts_pool_tasks"); !ok || v != 2 {
		t.Fatalf("drms_rts_pool_tasks = %v (ok=%v), want 2", v, ok)
	}
	// Scrape surface: the resize series render.
	if rendered := obs.Default.Render(); !strings.Contains(rendered, "drms_coord_resizes_total") ||
		!strings.Contains(rendered, `drms_coord_app_tasks{app="ejob"}`) {
		t.Fatal("resize metrics missing from the rendered registry")
	}

	evs := drainEvents(rc)
	if got := countEvents(evs, EventAppResized); got != 2 {
		t.Fatalf("saw %d app-resized events, want 2 (%v)", got, evs)
	}
	for _, e := range evs {
		if e.Kind != EventAppResized {
			continue
		}
		if e.FromTasks == 2 && e.Tasks == 4 || e.FromTasks == 4 && e.Tasks == 2 {
			continue
		}
		t.Fatalf("app-resized event with counts %d -> %d", e.FromTasks, e.Tasks)
	}
	if got := countEvents(evs, EventAppRecovered); got != 0 {
		t.Fatalf("a restart happened during in-flight resizes (%v)", evs)
	}
	for _, tc := range tcs {
		tc.Stop()
	}
}

// TestResizeAppRejections covers the control-plane guard rails: growing
// past the free pool, resizing to the current size, and resizing an
// application that is not running.
func TestResizeAppRejections(t *testing.T) {
	_, rc, tcs := newCluster(t, 2)
	out := make(chan float64, 1)
	p := appParams{n: 16, iters: 8, ckEvery: 2, result: out}
	if err := rc.Launch(p.spec("rjob"), 2, false); err != nil {
		t.Fatal(err)
	}
	h, _, err := rc.OpenApp("rjob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.ResizeApp(h, 2); err == nil {
		t.Fatal("resize to the current size accepted")
	}
	if _, err := rc.ResizeApp(h, 4); err == nil ||
		!strings.Contains(err.Error(), "free") {
		t.Fatalf("grow past the pool: err=%v, want free-processor rejection", err)
	}
	if _, err := rc.ResizeApp(h, 0); err == nil {
		t.Fatal("resize to 0 tasks accepted")
	}
	if status, err := rc.WaitApp("rjob"); err != nil || status != StatusFinished {
		t.Fatalf("app ended %s err=%v", status, err)
	}
	<-out
	h, _, err = rc.OpenApp("rjob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.ResizeApp(h, 1); err == nil {
		t.Fatal("resize of a finished application accepted")
	}
	for _, tc := range tcs {
		tc.Stop()
	}
}

// TestAutoscalerElastic drives the pool-pressure policy end to end on a
// 2-processor fleet: the scaled application expands into the idle
// processor, and when a second job queues up the autoscaler gives the
// processor back so the scheduler can place it — elasticity through
// in-flight resizes, no restart of the first application anywhere.
func TestAutoscalerElastic(t *testing.T) {
	_, rc, tcs := newCluster(t, 2)
	jsa := NewJSA(rc)
	decBase := coordScaleDecisions.Value()

	outA := make(chan float64, 1)
	pa := appParams{n: 32, iters: 1 << 20, ckEvery: 2, result: outA}
	specA := pa.spec("scaled")
	specA.Scale = &ScalePolicy{Min: 1, Max: 2, Interval: 10 * time.Millisecond}
	if err := rc.Launch(specA, 1, false); err != nil {
		t.Fatal(err)
	}
	a := NewAutoscaler(rc, jsa, 0)
	defer a.Close()

	// Idle capacity: the policy expands the application into it.
	waitFor(t, "grow into the idle processor", func() bool {
		info, ok := rc.App("scaled")
		return ok && info.Tasks == 2 && info.Status == StatusRunning
	})

	// Contention: a queued job makes the policy give a processor back.
	outB := make(chan float64, 1)
	pb := appParams{n: 16, iters: 6, ckEvery: 2, result: outB}
	if err := jsa.Submit(Job{Spec: pb.spec("queued"), Min: 1, Max: 1}); err != nil {
		t.Fatal(err)
	}
	// The scaled application holds both processors, so the queued job's
	// dispatch proves the shrink. The job is short enough to finish — and
	// the autoscaler to grow "scaled" back into the freed processor —
	// between two polls, so the one-task state itself may never be seen.
	waitFor(t, "shrink under queue pressure and dispatch", func() bool {
		infoB, okB := rc.App("queued")
		return okB && (infoB.Status == StatusRunning || infoB.Status == StatusFinished)
	})
	if status, err := rc.WaitApp("queued"); err != nil || status != StatusFinished {
		t.Fatalf("queued app ended %s err=%v", status, err)
	}
	<-outB

	info, _ := rc.App("scaled")
	if info.Incarnation != 0 {
		t.Fatalf("incarnation %d after autoscaling, want 0 (resizes, not restarts)", info.Incarnation)
	}
	if got := coordScaleDecisions.Value(); got < decBase+2 {
		t.Fatalf("scale decisions %d, want >= %d", got, decBase+2)
	}
	// Stop the scaled app at its next SOP; close the autoscaler first so
	// no concurrent resize invalidates the stop's handle.
	a.Close()
	h, _, err := rc.OpenApp("scaled")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.StopApp(h); err != nil {
		t.Fatal(err)
	}
	if status, err := rc.WaitApp("scaled"); err != nil || status != StatusFinished {
		t.Fatalf("scaled app ended %s err=%v", status, err)
	}
	for _, tc := range tcs {
		tc.Stop()
	}
}

// TestAutoscalerBudget pins the fleet-wide cap: a policy that wants 4
// tasks under a 2-processor budget stops at 2, and every denied grow is
// counted.
func TestAutoscalerBudget(t *testing.T) {
	_, rc, tcs := newCluster(t, 4)
	denBase := coordScaleDenied.Value()

	out := make(chan float64, 1)
	p := appParams{n: 32, iters: 1 << 20, ckEvery: 2, result: out}
	spec := p.spec("capped")
	spec.Scale = &ScalePolicy{Min: 1, Max: 4, Interval: 10 * time.Millisecond}
	if err := rc.Launch(spec, 1, false); err != nil {
		t.Fatal(err)
	}
	a := NewAutoscaler(rc, nil, 2)
	defer a.Close()

	waitFor(t, "grow to the budget", func() bool {
		info, ok := rc.App("capped")
		return ok && info.Tasks == 2
	})
	waitFor(t, "denied grow counted", func() bool {
		return coordScaleDenied.Value() >= denBase+1
	})
	if info, _ := rc.App("capped"); info.Tasks != 2 {
		t.Fatalf("tasks %d, want 2 (budget cap)", info.Tasks)
	}
	a.Close()
	h, _, err := rc.OpenApp("capped")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.StopApp(h); err != nil {
		t.Fatal(err)
	}
	if status, err := rc.WaitApp("capped"); err != nil || status != StatusFinished {
		t.Fatalf("app ended %s err=%v", status, err)
	}
	for _, tc := range tcs {
		tc.Stop()
	}
}

// TestWaitStatusNotFooledByTransitions is the settle race (satellite of
// ISSUE 10, in the spirit of PR 4's regressions): a WaitStatusCtx parked
// across short chunks observes a supervised application mid-recovery —
// status "recovering" — and previously returned it as a terminal
// verdict. The wait must ride through recovering (and through in-flight
// resizes, which never leave "running") until the app actually settles.
func TestWaitStatusNotFooledByTransitions(t *testing.T) {
	old := waitChunk
	waitChunk = 10 * time.Millisecond
	defer func() { waitChunk = old }()

	_, rc, tcs := newCluster(t, 2)
	srv := &ControlServer{RC: rc, JSA: NewJSA(rc)}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cl, err := DialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	var gate atomic.Bool
	out := make(chan float64, 1)
	p := appParams{n: 16, iters: 16, ckEvery: 2, gateAt: 5, gate: &gate, result: out}
	spec := p.spec("transit")
	spec.Recovery = fastPolicy(10)
	// Slow the restart down so the recovering state is parked on for
	// several wait chunks — the pre-fix code returned at the first one.
	spec.Recovery.Backoff = 150 * time.Millisecond
	if err := rc.Launch(spec, 2, false); err != nil {
		t.Fatal(err)
	}
	waitCommitted(t, rc, "transit")

	type res struct {
		st  AppStatus
		err error
	}
	got := make(chan res, 1)
	go func() {
		st, err := cl.WaitStatusCtx(context.Background(), "transit")
		got <- res{st, err}
	}()
	time.Sleep(50 * time.Millisecond) // the waiter is parked

	h, _, err := rc.OpenApp("transit")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.KillApp(h); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "recovery observed", func() bool {
		info, ok := rc.App("transit")
		return ok && (info.Status == StatusRecovering || info.Incarnation >= 1)
	})
	select {
	case r := <-got:
		t.Fatalf("WaitStatusCtx returned (%v, %v) on a recovery transition", r.st, r.err)
	case <-time.After(300 * time.Millisecond):
		// Parked through several "recovering" replies: the fix holds.
	}
	waitFor(t, "new incarnation running", func() bool {
		info, ok := rc.App("transit")
		return ok && info.Status == StatusRunning && info.Incarnation >= 1
	})
	gate.Store(true)
	select {
	case r := <-got:
		if r.err != nil || r.st != StatusFinished {
			t.Fatalf("WaitStatusCtx = (%v, %v), want (finished, nil)", r.st, r.err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("WaitStatusCtx never observed the real settle")
	}
	<-out
	for _, tc := range tcs {
		tc.Stop()
	}
}
