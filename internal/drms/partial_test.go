package drms

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
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// partialApp is a 1-D iterative element-wise update with a mandatory
// checkpoint at its SOP every ckEvery iterations, and a killable gate at
// iteration gateAt that spins until the test opens it — the hold point
// where recoveries are injected. atGate counts ranks that reached the
// gate (per body run): tests wait for the whole pool before injecting,
// so a kill never lands mid-checkpoint and tears a park snapshot (the
// torn case would correctly widen the restore set, which is a different
// experiment than the single-rank assertions below). The update is
// element-wise with a fixed operand order, so the final checksum is the
// bitwise fault-free oracle.
func partialApp(n, iters, ckEvery, gateAt int, gate *atomic.Bool, atGate *atomic.Int64, prefix string, out chan<- float64) func(*Task) error {
	return partialAppSOP((*Task).ReconfigCheckpoint, n, iters, ckEvery, gateAt, gate, atGate, prefix, out)
}

// partialAppSOP is partialApp with the SOP entry point chosen by the
// test: every entry point must serve a pending rollback the same way.
func partialAppSOP(sop func(*Task, string) (Status, int, error), n, iters, ckEvery, gateAt int, gate *atomic.Bool, atGate *atomic.Int64, prefix string, out chan<- float64) func(*Task) error {
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
				if _, _, err := sop(t, prefix); err != nil {
					return err
				}
			}
			if iter >= iters {
				break
			}
			if gate != nil && iter == gateAt {
				if atGate != nil {
					atGate.Add(1) // this rank passed every pre-gate SOP
				}
				for {
					open := 0.0
					if gate.Load() {
						open = 1
					}
					agree, err := t.Comm().AllreduceF64(open, math.Min) // killable spin
					if err != nil {
						return err
					}
					if agree == 1 {
						break
					}
					time.Sleep(100 * time.Microsecond)
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
			s, err := u.Checksum()
			if err != nil {
				return err
			}
			if t.Rank() == 0 {
				out <- s
			}
		}
		return nil
	}
}

// waitParked blocks until k gate arrivals have been counted. Each body
// (re-)run counts once, so round r of a recovery test waits for
// tasks*(r+1): only then is every rank spinning at the gate with its
// park snapshot captured, and an injected failure is guaranteed not to
// land mid-checkpoint (which would — correctly — widen the restore set).
func waitParked(t *testing.T, atGate *atomic.Int64, k int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for atGate.Load() < k {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d of %d gate arrivals", atGate.Load(), k)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitCommitted(t *testing.T, h *Handle) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g, ok := h.CommittedGen(); ok {
			return g
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for a committed generation")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPartialRecoverSingleRank is the localized-recovery happy path at
// the runtime level: a pool of 8 loses one rank mid-compute, survivors
// park in place (no new goroutines for them — same incarnation), the
// replacement restores only its assigned sections, and the run converges
// to the bitwise fault-free checksum.
func TestPartialRecoverSingleRank(t *testing.T) {
	const tasks, n, iters, ckEvery, gateAt = 8, 1 << 12, 8, 2, 5
	ref := make(chan float64, 1)
	if err := Run(Config{Tasks: tasks, FS: testFS()},
		partialApp(n, iters, ckEvery, 0, nil, nil, "ref", ref)); err != nil {
		t.Fatal(err)
	}
	want := <-ref

	// The rollback is owed by the replacement epoch's first SOP, whichever
	// entry point the application uses: the MPMD SOP once checked only for
	// a launch restore and checkpointed the replacement's blank state.
	group := NewGroup(1)
	for name, sop := range map[string]func(*Task, string) (Status, int, error){
		"ReconfigCheckpoint": (*Task).ReconfigCheckpoint,
		"GroupCheckpoint":    func(t *Task, prefix string) (Status, int, error) { return t.GroupCheckpoint(group, prefix) },
	} {
		sop := sop
		t.Run(name, func(t *testing.T) {
			fs := testFS()
			var gate atomic.Bool
			var atGate atomic.Int64
			out := make(chan float64, 1)
			h, err := Start(Config{Tasks: tasks, FS: fs, Partial: true, PartialTimeout: 10 * time.Second},
				partialAppSOP(sop, n, iters, ckEvery, gateAt, &gate, &atGate, "job", out))
			if err != nil {
				t.Fatal(err)
			}
			waitParked(t, &atGate, tasks)
			gen := waitCommitted(t, h)
			stats, err := h.PartialRecover(PartialRecoverSpec{
				Dead: []int{3}, From: fmt.Sprintf("job.g%d", gen)})
			if err != nil {
				t.Fatal(err)
			}
			if len(stats.Ranks) != 1 || stats.Ranks[0] != 3 {
				t.Fatalf("restored ranks %v, want [3]", stats.Ranks)
			}
			// The byte counters prove no full-state read: one rank of eight
			// plus the segment moved, nowhere near the whole array.
			total := int64(n * 8)
			if got := stats.TierMemBytes + stats.TierPFSBytes; got <= 0 || got >= total/2 {
				t.Fatalf("restored %d bytes of a %d-byte state; partial restore must move only the lost rank's share", got, total)
			}
			gate.Store(true)
			if err := h.Wait(); err != nil {
				t.Fatal(err)
			}
			// Survivor goroutines persisted: launch spawned 8, the recovery
			// exactly one replacement.
			if got := h.TaskSpawns(); got != tasks+1 {
				t.Fatalf("task goroutines spawned = %d, want %d (survivors must not be respawned)", got, tasks+1)
			}
			if got := <-out; got != want {
				t.Fatalf("checksum %v != fault-free %v", got, want)
			}
		})
	}
}

// TestPartialRecoverTwoSequentialFailures loses two different ranks in
// two successive localized recoveries within one incarnation.
func TestPartialRecoverTwoSequentialFailures(t *testing.T) {
	const tasks, n, iters, ckEvery, gateAt = 8, 1 << 12, 8, 2, 5
	ref := make(chan float64, 1)
	if err := Run(Config{Tasks: tasks, FS: testFS()},
		partialApp(n, iters, ckEvery, 0, nil, nil, "ref", ref)); err != nil {
		t.Fatal(err)
	}
	want := <-ref

	fs := testFS()
	var gate atomic.Bool
	var atGate atomic.Int64
	out := make(chan float64, 1)
	h, err := Start(Config{Tasks: tasks, FS: fs, Partial: true},
		partialApp(n, iters, ckEvery, gateAt, &gate, &atGate, "job", out))
	if err != nil {
		t.Fatal(err)
	}
	for i, dead := range []int{2, 6} {
		waitParked(t, &atGate, int64(tasks*(i+1)))
		gen := waitCommitted(t, h)
		if _, err := h.PartialRecover(PartialRecoverSpec{
			Dead: []int{dead}, From: fmt.Sprintf("job.g%d", gen)}); err != nil {
			t.Fatalf("recovery %d (rank %d): %v", i+1, dead, err)
		}
	}
	gate.Store(true)
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := h.TaskSpawns(); got != tasks+2 {
		t.Fatalf("task goroutines spawned = %d, want %d", got, tasks+2)
	}
	if got := <-out; got != want {
		t.Fatalf("checksum %v != fault-free %v", got, want)
	}
}

// TestPartialRecoverIneligibleFallsBack pins the rollback to a
// generation that does not exist: eligibility fails on every task, the
// attempt errors, the incarnation unwinds — and the classic restart path
// then converges from the real checkpoint.
func TestPartialRecoverIneligibleFallsBack(t *testing.T) {
	const tasks, n, iters, ckEvery, gateAt = 4, 1 << 10, 8, 2, 5
	ref := make(chan float64, 1)
	if err := Run(Config{Tasks: tasks, FS: testFS()},
		partialApp(n, iters, ckEvery, 0, nil, nil, "ref", ref)); err != nil {
		t.Fatal(err)
	}
	want := <-ref

	fs := testFS()
	var gate atomic.Bool
	var atGate atomic.Int64
	h, err := Start(Config{Tasks: tasks, FS: fs, Partial: true},
		partialApp(n, iters, ckEvery, gateAt, &gate, &atGate, "job", nil))
	if err != nil {
		t.Fatal(err)
	}
	waitParked(t, &atGate, tasks)
	waitCommitted(t, h)
	if _, err := h.PartialRecover(PartialRecoverSpec{
		Dead: []int{1}, From: "job.g99"}); err == nil ||
		!strings.Contains(err.Error(), "ineligible") {
		t.Fatalf("partial recovery of a missing generation: err=%v, want ineligible", err)
	}
	if err := h.Wait(); err == nil {
		t.Fatal("incarnation survived a failed rollback; it must unwind to the restart path")
	}
	gate.Store(true)
	out := make(chan float64, 1)
	if err := Run(Config{Tasks: tasks, FS: fs, RestartFrom: "job"},
		partialApp(n, iters, ckEvery, 0, nil, nil, "job", out)); err != nil {
		t.Fatal(err)
	}
	if got := <-out; got != want {
		t.Fatalf("full-restart checksum %v != fault-free %v", got, want)
	}
}

// TestPartialRecoverLostHoldersFallsBack is the k+1 arm at the runtime
// level: the newest generations live only in peer memory (DemoteEvery),
// and every replica of the dead rank's pieces is dropped — eligibility
// must refuse, because the bytes exist nowhere the replacement could
// read them.
func TestPartialRecoverLostHoldersFallsBack(t *testing.T) {
	const tasks, n, iters, ckEvery, gateAt = 4, 1 << 10, 12, 2, 9
	fs := testFS()
	tier := ckpt.NewMemTier()
	var gate atomic.Bool
	var atGate atomic.Int64
	h, err := Start(Config{Tasks: tasks, FS: fs, Partial: true,
		Tier: tier, DemoteEvery: 8},
		partialApp(n, iters, ckEvery, gateAt, &gate, &atGate, "job", nil))
	if err != nil {
		t.Fatal(err)
	}
	// Park at the gate: every pre-gate generation is now fully written,
	// and the newest (gen >= 1 is memory-only under DemoteEvery=8) is
	// diskless. Then destroy every replica of rank 1's pieces: with
	// Replicas=0 the writer's own store is the only holder.
	waitParked(t, &atGate, tasks)
	gen := waitCommitted(t, h)
	if gen < 1 {
		t.Fatalf("gen %d committed at the gate, want a diskless gen >= 1", gen)
	}
	tier.DropStore(1)
	_, err = h.PartialRecover(PartialRecoverSpec{
		Dead: []int{1}, From: fmt.Sprintf("job.g%d", gen)})
	if err == nil || !strings.Contains(err.Error(), "ineligible") {
		t.Fatalf("partial recovery with all holders lost: err=%v, want ineligible", err)
	}
	// No Kill was sent, and still the exit must read as the failure the
	// rollback could not absorb — the supervisor restarts on that.
	if err := h.Wait(); !errors.Is(err, msg.ErrRevoked) {
		t.Fatalf("incarnation after a failed rollback exited with %v; it must unwind to the restart path as revoked", err)
	}
}
