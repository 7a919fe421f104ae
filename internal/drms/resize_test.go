package drms

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"drms/internal/ckpt"
	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/obs"
	"drms/internal/rangeset"
)

// resizeApp is partialApp's elastic cousin: a 1-D iterative element-wise
// update that checkpoints every ckEvery iterations and, at the
// iterations listed in resizes, asks the runtime for a new task count
// via the in-flight resize SOP. The update is element-wise with a fixed
// operand order, so the final state is bitwise independent of the task
// count — a fault-free fixed-size run is the exact oracle. armAt/armRank,
// when set, arm the fault injector just before the resize SOP (the
// mid-resize chaos arm). The final full array is gathered to rank 0 and
// sent on out.
func resizeApp(n, iters, ckEvery int, resizes map[int]int, armAt int, armRank int, hRef *atomic.Pointer[Handle], out chan<- []float64) func(*Task) error {
	return func(t *Task) error {
		g := rangeset.NewSlice(rangeset.Span(0, n-1))
		d, err := dist.Block(g, []int{t.Tasks()})
		if err != nil {
			return err
		}
		u, err := NewArray[float64](t, "u", d)
		if err != nil {
			return err
		}
		iter := 0
		t.Register("iter", &iter)
		u.Fill(func(c []int) float64 { return float64(c[0]) * 0.001 })

		for {
			if iter%ckEvery == 0 {
				if _, _, err := t.ReconfigCheckpoint("job"); err != nil {
					return err
				}
			}
			if iter >= iters {
				break
			}
			if target, ok := resizes[iter]; ok && t.Tasks() != target {
				if hRef != nil && iter == armAt && t.Rank() == armRank {
					for hRef.Load() == nil { // Start has not returned yet
						time.Sleep(time.Millisecond)
					}
					// Die at the next transport op: inside the resize SOP.
					hRef.Load().Fault().Arm()
				}
				if _, _, err := t.ReconfigResize("job", target); err != nil {
					return err
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
		if out != nil {
			full, err := u.Gather(0, rangeset.ColMajor)
			if err != nil {
				return err
			}
			if t.Rank() == 0 {
				out <- full
			}
		}
		return nil
	}
}

// oracle runs the application fault-free at a fixed task count and
// returns the final full array.
func oracle(t *testing.T, tasks, n, iters, ckEvery int) []float64 {
	t.Helper()
	out := make(chan []float64, 1)
	if err := Run(Config{Tasks: tasks, FS: testFS()},
		resizeApp(n, iters, ckEvery, nil, -1, -1, nil, out)); err != nil {
		t.Fatal(err)
	}
	return <-out
}

func assertBitwise(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("gathered %d elements, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("element %d: %v != %v (state not bitwise identical)", i, got[i], want[i])
		}
	}
}

// TestResizeGrowInFlight widens a 2-task run to 4 at a mid-run SOP: same
// incarnation, survivors keep their goroutines, two fresh ranks appear,
// and the final state is bitwise the fault-free oracle's.
func TestResizeGrowInFlight(t *testing.T) {
	const tasks, n, iters, ckEvery, at = 2, 1 << 12, 8, 2, 3
	want := oracle(t, tasks, n, iters, ckEvery)

	out := make(chan []float64, 1)
	fs := testFS()
	h, err := Start(Config{Tasks: tasks, FS: fs, Keep: 8},
		resizeApp(n, iters, ckEvery, map[int]int{at: 4}, -1, -1, nil, out))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	assertOneFormat(t, fs, "job", false) // the resize generation included
	// 2 launch goroutines + 2 grown; nobody was respawned.
	if got := h.TaskSpawns(); got != 4 {
		t.Fatalf("task goroutines spawned = %d, want 4", got)
	}
	assertBitwise(t, <-out, want)
}

// TestResizeShrinkInFlight narrows a 4-task run to 2: the retired ranks'
// goroutines exit superseded, nothing is spawned, and the state is
// bitwise preserved.
func TestResizeShrinkInFlight(t *testing.T) {
	const tasks, n, iters, ckEvery, at = 4, 1 << 12, 8, 2, 3
	want := oracle(t, tasks, n, iters, ckEvery)

	out := make(chan []float64, 1)
	h, err := Start(Config{Tasks: tasks, FS: testFS()},
		resizeApp(n, iters, ckEvery, map[int]int{at: 2}, -1, -1, nil, out))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := h.TaskSpawns(); got != 4 {
		t.Fatalf("task goroutines spawned = %d, want 4 (a shrink spawns nothing)", got)
	}
	assertBitwise(t, <-out, want)
}

// TestResizeRoundTripBitwise is the plan-cache coherence regression:
// n -> m -> n within one process. The second resize returns to the
// original task count, so any plan cached under a pointer recycled from
// the first epoch would be reachable again if keys ignored the epoch —
// a stale schedule would misroute bytes and break bitwise identity.
func TestResizeRoundTripBitwise(t *testing.T) {
	const tasks, n, iters, ckEvery = 4, 1 << 12, 12, 2
	want := oracle(t, tasks, n, iters, ckEvery)

	out := make(chan []float64, 1)
	h, err := Start(Config{Tasks: tasks, FS: testFS()},
		resizeApp(n, iters, ckEvery, map[int]int{3: 2, 7: 4}, -1, -1, nil, out))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	// 4 launch + 2 re-grown (the shrink to 2 spawned nothing).
	if got := h.TaskSpawns(); got != 6 {
		t.Fatalf("task goroutines spawned = %d, want 6", got)
	}
	assertBitwise(t, <-out, want)
	if !strings.Contains(obs.Default.Render(), "drms_rts_resizes_total") {
		t.Fatal("resize counter missing from the metrics registry")
	}
}

// TestResizeSystemInitiatedMemTier is the hot path end to end: the RC
// side calls Handle.Resize on a tier-backed run; the swap rides the next
// SOP, the resize generation lives only in peer memory, and the
// redistribution reads zero bytes from the pfs.
func TestResizeSystemInitiatedMemTier(t *testing.T) {
	const tasks, n, iters, ckEvery, gateAt = 2, 1 << 12, 12, 2, 5
	ref := make(chan float64, 1)
	if err := Run(Config{Tasks: tasks, FS: testFS()},
		partialApp(n, iters, ckEvery, 0, nil, nil, "job", ref)); err != nil {
		t.Fatal(err)
	}
	want := <-ref

	fs := testFS()
	tier := ckpt.NewMemTier()
	var gate atomic.Bool
	var atGate atomic.Int64
	out := make(chan float64, 1)
	h, err := Start(Config{Tasks: tasks, FS: fs, Tier: tier, Replicas: 1},
		partialApp(n, iters, ckEvery, gateAt, &gate, &atGate, "job", out))
	if err != nil {
		t.Fatal(err)
	}
	// Hold every task at the gate, arm the resize, then release: the next
	// checkpoint SOP carries the swap.
	waitParked(t, &atGate, tasks)
	waitCommitted(t, h)
	go func() {
		time.Sleep(50 * time.Millisecond)
		gate.Store(true)
	}()
	stats, err := h.Resize(ResizeSpec{Tasks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.From != tasks || stats.To != 4 || stats.Gen == "" {
		t.Fatalf("resize stats %+v, want From=2 To=4 and a generation", stats)
	}
	if stats.TierPFSBytes != 0 || stats.TierMemBytes <= 0 {
		t.Fatalf("resize moved mem=%d pfs=%d bytes; the hot path must not touch the pfs",
			stats.TierMemBytes, stats.TierPFSBytes)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if src, ok := h.LastRestoreSource(); !ok || src != "mem" {
		t.Fatalf("restore source %q (ok=%v), want mem", src, ok)
	}
	assertOneFormat(t, fs, "job", false)
	if got := h.TaskSpawns(); got != 4 {
		t.Fatalf("task goroutines spawned = %d, want 4", got)
	}
	if got := <-out; got != want {
		t.Fatalf("checksum %v != fault-free %v", got, want)
	}
	// The rank-0 SOP gauge follows the post-resize pool — no incarnation
	// bump happened to re-stamp it.
	if v, ok := obs.Default.Value("drms_rts_pool_tasks"); !ok || v != 4 {
		t.Fatalf("drms_rts_pool_tasks = %v (ok=%v), want 4", v, ok)
	}
}

// TestResizeRejections covers the guard rails: SPMD runs, zero tasks,
// the current size, and overlap with a localized recovery.
func TestResizeRejections(t *testing.T) {
	const tasks, n, iters, ckEvery, gateAt = 2, 1 << 10, 8, 2, 3
	fs := testFS()
	var gate atomic.Bool
	var atGate atomic.Int64
	h, err := Start(Config{Tasks: tasks, FS: fs, Partial: true},
		partialApp(n, iters, ckEvery, gateAt, &gate, &atGate, "job", nil))
	if err != nil {
		t.Fatal(err)
	}
	waitParked(t, &atGate, tasks)
	if _, err := h.Resize(ResizeSpec{Tasks: 0}); err == nil {
		t.Fatal("resize to 0 tasks accepted")
	}
	if _, err := h.Resize(ResizeSpec{Tasks: tasks}); err == nil {
		t.Fatal("resize to the current size accepted")
	}
	// An armed (unfinished) resize excludes a second resize and a partial
	// recovery. The application is still parked at the gate, so the armed
	// attempt cannot complete while we probe.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := h.Resize(ResizeSpec{Tasks: 4}); err != nil {
			t.Errorf("resize failed: %v", err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for h.armedResize() == nil {
		if time.Now().After(deadline) {
			t.Fatal("resize never armed")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := h.Resize(ResizeSpec{Tasks: 3}); err == nil ||
		!strings.Contains(err.Error(), "resize is in flight") {
		t.Fatalf("concurrent resize: err=%v, want rejection", err)
	}
	if _, err := h.PartialRecover(PartialRecoverSpec{Dead: []int{1}, From: "job.g0"}); err == nil ||
		!strings.Contains(err.Error(), "resize is in flight") {
		t.Fatalf("partial recovery during a resize: err=%v, want rejection", err)
	}
	gate.Store(true)
	<-done
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestResizeKillDuringSOP is the mid-resize chaos arm: a rank dies
// inside the resize SOP itself (armed fault injection fires at its next
// transport operation, i.e. during the resize generation's collective
// write). The incarnation must unwind, nothing torn may be promoted —
// the fsck pass over every surviving generation must be clean — and the
// classic restart path must converge bit-exact from the pre-resize
// generation.
func TestResizeKillDuringSOP(t *testing.T) {
	const tasks, n, iters, ckEvery, at = 4, 1 << 12, 8, 2, 3
	want := oracle(t, tasks, n, iters, ckEvery)

	fs := testFS()
	var hRef atomic.Pointer[Handle]
	h, err := Start(Config{Tasks: tasks, FS: fs, Fault: &msg.FaultSpec{Victim: 1}},
		resizeApp(n, iters, ckEvery, map[int]int{at: 2}, at, 1, &hRef, nil))
	if err != nil {
		t.Fatal(err)
	}
	hRef.Store(h)
	if err := h.Wait(); err == nil {
		t.Fatal("a rank died mid-resize yet the incarnation survived")
	}
	if !h.Fault().Dead() {
		t.Fatal("the armed fault never fired: the kill did not land in the resize SOP")
	}
	// fsck equivalent: discard meta-less leftovers of the torn write, then
	// every generation still reachable must verify clean.
	ckpt.Rotation{Base: "job"}.CleanIncomplete(fs)
	gens := ckpt.Rotation{Base: "job"}.Generations(fs)
	if len(gens) == 0 {
		t.Fatal("no committed generation survived the mid-resize kill")
	}
	for _, g := range gens {
		if err := ckpt.Verify(fs, g, 0); err != nil {
			t.Fatalf("generation %s is torn after a mid-resize kill: %v", g, err)
		}
	}
	// Classic restart path from the pre-resize generation, at a third
	// task count for good measure: must converge bit-exact.
	out := make(chan []float64, 1)
	if err := Run(Config{Tasks: 3, FS: fs, RestartFrom: "job"},
		resizeApp(n, iters, ckEvery, nil, -1, -1, nil, out)); err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, <-out, want)
}

// TestLiveResizeKeepsCompletedAttempt pins the retired-rank race: a rank
// of the old epoch reaches its post-write liveResize after the new
// epoch's restore already completed the attempt. It must get that same
// attempt back — not arm a fresh one nobody will complete, which would
// refuse the next Handle.Resize with "a resize is in flight" — while a
// finished attempt of an earlier generation (a timed-out driver) is
// still replaced.
func TestLiveResizeKeepsCompletedAttempt(t *testing.T) {
	h := &Handle{}
	at := &attempt{target: 2, done: make(chan struct{})}
	if err := h.arm(&h.resize, at, nil); err != nil {
		t.Fatal(err)
	}
	at.setGen("ck.g7")
	at.complete(restoreOutcome{}, nil)
	if got := h.liveResize(2, "ck.g7"); got != at {
		t.Fatal("late rank of the completed resize armed a fresh attempt")
	}
	next := &attempt{target: 4, done: make(chan struct{})}
	if err := h.arm(&h.resize, next, nil); err != nil {
		t.Fatalf("next resize refused after a completed one: %v", err)
	}
	// The driver gave up before any rank committed: the ranks carry the
	// resize out under a fresh attempt.
	next.complete(restoreOutcome{}, nil)
	if got := h.liveResize(4, "ck.g8"); got == next || got.finished() {
		t.Fatal("timed-out attempt was not re-armed for the committed generation")
	}
}
