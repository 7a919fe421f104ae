package coord

import (
	"sync/atomic"
	"testing"
	"time"

	"drms/internal/ckpt"
	"drms/internal/msg"
)

// The localized-recovery chaos arm (DESIGN.md §3j): seeded node and
// process kills against a Partial-enabled supervised application. The
// claims under test, per ISSUE 9: survivors keep their goroutines (same
// incarnation, spawn count grows by exactly the dead set), the spare
// reads only its assigned sections, the result stays bit-exact with a
// fault-free run, no full restart happens while the plan is eligible —
// and when it is not (every replica of a needed piece destroyed), the
// supervisor falls back to the classic full restart and still converges.

// waitPartialRecoveries blocks until the cluster-wide partial-recovery
// counter reaches base+delta.
func waitPartialRecoveries(t *testing.T, base uint64, delta uint64) {
	t.Helper()
	waitFor(t, "localized recovery", func() bool {
		return coordPartialRecoveries.Value() >= base+delta
	})
}

func TestPartialRecoverySingleNodeLoss(t *testing.T) {
	const n, iters, ckEvery = 32, 12, 2
	want := cleanChecksum(t, 4, n, iters, ckEvery)

	_, rc, tcs := newCluster(t, 5) // 4 busy + 1 spare
	var gate atomic.Bool
	out := make(chan float64, 1)
	p := appParams{n: n, iters: iters, ckEvery: ckEvery, gateAt: 5, gate: &gate, result: out}
	spec := p.spec("locjob")
	spec.Recovery = fastPolicy(10)
	spec.Partial = true
	base := coordPartialRecoveries.Value()

	if err := rc.Launch(spec, 4, false); err != nil {
		t.Fatal(err)
	}
	waitCommitted(t, rc, "locjob")
	info, _ := rc.App("locjob")
	deadNode := info.Nodes[2]
	tcs[deadNode].Fail()
	waitPartialRecoveries(t, base, 1)

	gate.Store(true)
	status, err := rc.WaitApp("locjob")
	if err != nil || status != StatusFinished {
		t.Fatalf("app ended %s err=%v, want finished", status, err)
	}
	if got := <-out; got != want {
		t.Fatalf("checksum %v != fault-free %v", got, want)
	}
	// Same incarnation end to end: the recovery replaced one rank's
	// goroutine inside incarnation 0 instead of restarting.
	info, _ = rc.App("locjob")
	if info.Incarnation != 0 {
		t.Fatalf("incarnation %d, want 0 (localized recovery must not restart)", info.Incarnation)
	}
	if h, ok := rc.handleOf("locjob"); ok {
		if got := h.TaskSpawns(); got != 5 {
			t.Fatalf("task goroutines spawned = %d, want 5 (4 at launch + 1 spare)", got)
		}
	}
	// The dead node left the pool, the spare joined it.
	for _, nd := range info.Nodes {
		if nd == deadNode {
			t.Fatalf("dead node %d still in pool %v", deadNode, info.Nodes)
		}
	}
	evs := drainEvents(rc)
	if countEvents(evs, EventAppPartialRecovery) != 1 {
		t.Fatalf("saw %d app-partial-recovery events, want 1 (%v)", countEvents(evs, EventAppPartialRecovery), evs)
	}
	if countEvents(evs, EventAppRecovered) != 0 {
		t.Fatalf("full restart happened despite an eligible plan (%v)", evs)
	}
}

func TestPartialRecoveryTwoSequentialNodeLosses(t *testing.T) {
	const n, iters, ckEvery = 32, 12, 2
	want := cleanChecksum(t, 4, n, iters, ckEvery)

	_, rc, tcs := newCluster(t, 6) // 4 busy + 2 spares
	var gate atomic.Bool
	out := make(chan float64, 1)
	p := appParams{n: n, iters: iters, ckEvery: ckEvery, gateAt: 5, gate: &gate, result: out}
	spec := p.spec("locjob2")
	spec.Recovery = fastPolicy(10)
	spec.Partial = true
	base := coordPartialRecoveries.Value()

	if err := rc.Launch(spec, 4, false); err != nil {
		t.Fatal(err)
	}
	waitCommitted(t, rc, "locjob2")
	info, _ := rc.App("locjob2")
	tcs[info.Nodes[1]].Fail()
	waitPartialRecoveries(t, base, 1)
	info, _ = rc.App("locjob2")
	tcs[info.Nodes[3]].Fail()
	waitPartialRecoveries(t, base, 2)

	gate.Store(true)
	status, err := rc.WaitApp("locjob2")
	if err != nil || status != StatusFinished {
		t.Fatalf("app ended %s err=%v, want finished", status, err)
	}
	if got := <-out; got != want {
		t.Fatalf("checksum %v != fault-free %v", got, want)
	}
	info, _ = rc.App("locjob2")
	if info.Incarnation != 0 {
		t.Fatalf("incarnation %d, want 0", info.Incarnation)
	}
	if h, ok := rc.handleOf("locjob2"); ok {
		if got := h.TaskSpawns(); got != 6 {
			t.Fatalf("task goroutines spawned = %d, want 6 (4 at launch + 2 spares)", got)
		}
	}
	evs := drainEvents(rc)
	if countEvents(evs, EventAppPartialRecovery) != 2 {
		t.Fatalf("saw %d app-partial-recovery events, want 2 (%v)", countEvents(evs, EventAppPartialRecovery), evs)
	}
	if countEvents(evs, EventAppRecovered) != 0 {
		t.Fatalf("full restart happened despite eligible plans (%v)", evs)
	}
}

// TestPartialRecoveryInjectedProcessDeath drives the other failure
// mode: a seeded in-process kill (FaultNext), not a node loss. The
// node and its memory survive, so no spare is claimed — the same rank
// is re-spawned in place and the pool is unchanged.
func TestPartialRecoveryInjectedProcessDeath(t *testing.T) {
	const n, iters, ckEvery = 32, 12, 2
	want := cleanChecksum(t, 4, n, iters, ckEvery)

	_, rc, tcs := newCluster(t, 4)
	var gate atomic.Bool
	out := make(chan float64, 1)
	p := appParams{n: n, iters: iters, ckEvery: ckEvery, gateAt: 5, gate: &gate, result: out}
	spec := p.spec("procjob")
	spec.Recovery = fastPolicy(10)
	spec.Partial = true
	// One seeded kill of rank 2, far enough into the op stream that
	// checkpoints exist (the victim parks at the gate spin by then).
	var armed atomic.Bool
	spec.FaultNext = func(incarnation, tasks int) *msg.FaultSpec {
		if armed.Swap(true) {
			return nil
		}
		return &msg.FaultSpec{Victim: 2, AtOp: 400}
	}
	base := coordPartialRecoveries.Value()

	if err := rc.Launch(spec, 4, false); err != nil {
		t.Fatal(err)
	}
	waitPartialRecoveries(t, base, 1)
	info, _ := rc.App("procjob")
	nodesBefore := append([]int(nil), info.Nodes...)

	gate.Store(true)
	status, err := rc.WaitApp("procjob")
	if err != nil || status != StatusFinished {
		t.Fatalf("app ended %s err=%v, want finished", status, err)
	}
	if got := <-out; got != want {
		t.Fatalf("checksum %v != fault-free %v", got, want)
	}
	info, _ = rc.App("procjob")
	if info.Incarnation != 0 {
		t.Fatalf("incarnation %d, want 0", info.Incarnation)
	}
	for i, nd := range info.Nodes {
		if nd != nodesBefore[i] {
			t.Fatalf("pool changed %v -> %v; a process death must not claim a spare", nodesBefore, info.Nodes)
		}
	}
	if h, ok := rc.handleOf("procjob"); ok {
		if got := h.TaskSpawns(); got != 5 {
			t.Fatalf("task goroutines spawned = %d, want 5", got)
		}
	}
	for _, tc := range tcs {
		tc.Stop()
	}
}

// TestPartialRecoveryFallsBackWhenPlanLost is the forced-fallback arm:
// the newest generations are diskless and every peer-memory store is
// destroyed before the node loss, so the rollback plan cannot be proven
// safe. The supervisor must refuse the localized path (fallback counter,
// no partial-recovery event), run the classic full restart — quarantine
// the unverifiable diskless generations, restore from the newest pfs
// generation — and still converge bit-exactly.
func TestPartialRecoveryFallsBackWhenPlanLost(t *testing.T) {
	const n, iters, ckEvery = 24, 12, 2
	want := cleanChecksum(t, 4, n, iters, ckEvery)

	fs, rc, tcs := newCluster(t, 5)
	var gate atomic.Bool
	out := make(chan float64, 1)
	p := appParams{n: n, iters: iters, ckEvery: ckEvery, gateAt: 5, gate: &gate, result: out}
	spec := p.spec("fbjob")
	spec.Recovery = fastPolicy(10)
	spec.Recovery.Pool = func(available, previous int) int { return available }
	spec.Partial = true
	spec.Replicas = 1
	spec.DemoteEvery = 4
	fbBase := coordPartialFallbacks.Value()
	prBase := coordPartialRecoveries.Value()

	if err := rc.Launch(spec, 4, false); err != nil {
		t.Fatal(err)
	}
	// Park with diskless generations newest (g0 disk, g1/g2 diskless),
	// then burn every peer-memory store: no replica of any diskless
	// piece survives anywhere.
	waitFor(t, "diskless generations", func() bool {
		gens := ckpt.Rotation{Base: "fbjob"}.Generations(fs)
		if len(gens) == 0 {
			return false
		}
		_, g, _ := ckpt.GenOf(gens[len(gens)-1])
		return g >= 2
	})
	for h := 0; h < 5; h++ {
		rc.tier.DropStore(h)
	}
	info, _ := rc.App("fbjob")
	tcs[info.Nodes[1]].Fail()

	waitFor(t, "fallback full restart", func() bool {
		info, ok := rc.App("fbjob")
		return ok && info.Status == StatusRunning && info.Incarnation >= 1
	})
	if got := coordPartialFallbacks.Value(); got < fbBase+1 {
		t.Fatalf("partial-fallback counter %d, want >= %d", got, fbBase+1)
	}
	if got := coordPartialRecoveries.Value(); got != prBase {
		t.Fatalf("a localized recovery completed (%d -> %d) despite a lost plan", prBase, got)
	}

	gate.Store(true)
	status, err := rc.WaitApp("fbjob")
	if err != nil || status != StatusFinished {
		t.Fatalf("app ended %s err=%v, want finished", status, err)
	}
	if got := <-out; got != want {
		t.Fatalf("checksum %v != fault-free %v", got, want)
	}
	evs := drainEvents(rc)
	if countEvents(evs, EventAppPartialRecovery) != 0 {
		t.Fatalf("partial-recovery event on an ineligible plan (%v)", evs)
	}
	if countEvents(evs, EventAppRecovered) < 1 {
		t.Fatalf("no full restart after the forced fallback (%v)", evs)
	}
	time.Sleep(10 * time.Millisecond) // let late TC heartbeats drain before Close
}
