package drms

import (
	"errors"
	"strings"
	"sync"
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

// TestResizeRoundTripBitwise is the plan coherence regression: n -> m ->
// n within one process. The second resize returns to the original task
// count, so a plan of the first epoch replayed in the third — a stale
// schedule — would misroute bytes and break bitwise identity; plans live
// in the communicator of the epoch that built them.
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

// TestLiveResizeRearmsOnlyFinishedAttempts pins what rank 0 gets when it
// pins a committed resize generation: the armed attempt while it is
// unfinished, and a fresh one once the driver timed it out, so the resize
// epoch still finds its generation.
func TestLiveResizeRearmsOnlyFinishedAttempts(t *testing.T) {
	h := &Handle{}
	at := &attempt{target: 2, done: make(chan struct{})}
	if err := h.arm(&h.resize, at, nil); err != nil {
		t.Fatal(err)
	}
	if got := h.liveResize(2); got != at {
		t.Fatal("the armed, unfinished attempt was replaced")
	}
	// The driver gave up before any rank committed: the ranks carry the
	// resize out under a fresh attempt.
	at.complete(restoreOutcome{}, errors.New("timed out"))
	if got := h.liveResize(2); got == at || got.finished() {
		t.Fatal("timed-out attempt was not re-armed for the committed generation")
	}
}

// holdRef is a declared array that runs hold whenever its task encodes
// its local section — for a task of a Partial run, only in its park
// snapshot, right after every committed checkpoint, between the SOP's
// write and its return.
type holdRef struct {
	ckpt.ArrayRef
	hold func()
}

func (r holdRef) AppendLocalBytes(dst []byte) []byte {
	r.hold()
	return r.ArrayRef.AppendLocalBytes(dst)
}

// TestResizeRetiredRankArrivingLate: a rank retired by a 4→2 resize
// leaves the resize SOP only after the driver armed the 2→4 one. It must
// not pin its (old) generation into the new attempt: the 4-task epoch
// restores the generation the 2→4 SOP committed. With Keep 1 the old one
// is pruned by then, so a pinned old generation fails the resize.
func TestResizeRetiredRankArrivingLate(t *testing.T) {
	const n, iters = 1 << 10, 6
	want := oracle(t, 4, n, iters, 1)
	var (
		holding = make(chan struct{}) // rank 3 is past the resize SOP's write
		release = make(chan struct{}) // ends rank 3's hold
		retired = make(chan struct{}) // rank 3 of the launch epoch left the resize SOP
		start   = make(chan struct{}) // the first resize is armed
		once    sync.Once
	)
	out := make(chan []float64, 1)
	app := func(t *Task) error {
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
		// In the launch epoch, whose first SOP is the 4→2 resize, rank 3
		// holds at its snapshot, and rank 0 waits at its snapshot until
		// rank 3 is out of the write: else retiring the epoch could catch
		// rank 3 in the write's last round.
		encodes := 0
		t.arrays[0] = holdRef{t.arrays[0], func() {
			if encodes++; t.Comm().Epoch() != 0 || encodes != 1 {
				return
			}
			switch t.Rank() {
			case 3:
				close(holding)
				<-release
			case 0:
				<-holding
			}
		}}
		u.Fill(func(c []int) float64 { return float64(c[0]) * 0.001 })
		<-start
		for {
			st, _, err := t.ReconfigCheckpoint("job")
			if err != nil {
				if t.Rank() == 3 && errors.Is(err, errResize) {
					once.Do(func() { close(retired) })
				}
				return err
			}
			if st == Restored && t.Tasks() == 2 {
				<-retired // the 2→4 SOP waits for the late rank
			}
			if iter >= iters {
				break
			}
			u.Assigned().Each(rangeset.ColMajor, func(c []int) {
				u.Set(c, u.At(c)*0.75+float64(c[0])*0.01)
			})
			iter++
			if err := t.Comm().Barrier(); err != nil {
				return err
			}
		}
		full, err := u.Gather(0, rangeset.ColMajor)
		if err == nil && t.Rank() == 0 {
			out <- full
		}
		return err
	}
	h, err := Start(Config{Tasks: 4, FS: testFS(), Keep: 1, Partial: true}, app)
	if err != nil {
		t.Fatal(err)
	}
	// armed waits until a resize other than prev is armed.
	armed := func(prev *attempt) *attempt {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if at := h.armedResize(); at != nil && at != prev {
				return at
			}
		}
		t.Fatal("timeout waiting for the resize to be armed")
		return nil
	}
	type result struct {
		st  ResizeStats
		err error
	}
	resize := func(tasks int) chan result {
		c := make(chan result, 1)
		go func() {
			st, err := h.Resize(ResizeSpec{Tasks: tasks, Timeout: 20 * time.Second})
			c <- result{st, err}
		}()
		return c
	}
	shrink := resize(2)
	first := armed(nil)
	close(start)
	r1 := <-shrink
	if r1.err != nil {
		t.Fatal(r1.err)
	}
	grow := resize(4)
	armed(first)
	close(release)
	r2 := <-grow
	if r2.err != nil {
		t.Fatalf("resize to 4 after a late retired rank: %v", r2.err)
	}
	if r2.st.Gen == r1.st.Gen {
		t.Fatalf("the 2→4 resize restored %s, the 4→2 resize's generation", r2.st.Gen)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, <-out, want)
}
