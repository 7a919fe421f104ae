package msg

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// resizeLog records what each task observed across resize epochs: park
// outcomes plus the communicator sizes tasks computed with after each
// transition, and the Resized flag of every comm a body received.
type resizeLog struct {
	mu         sync.Mutex
	superseded int
	parks      []ShrinkInfo
	sizes      map[int][]int  // rank -> sizes seen after each park/spawn
	resized    map[int][]bool // epoch -> Resized() of each comm seen in it
}

// body is the survivor loop for resize tests: allreduce a stop flag; on
// ErrProcFailed park into the new epoch and keep going at whatever size
// it has; on ErrSuperseded (rank retired by a shrinking resize) exit.
func (l *resizeLog) body(r *Runner, stop *atomic.Bool) func(c *Comm) error {
	return func(c *Comm) error {
		l.note(c)
		for {
			v := 0.0
			if stop.Load() {
				v = 1
			}
			agree, err := c.AllreduceF64(v, Min)
			if err == nil {
				if agree == 1 {
					return nil
				}
				time.Sleep(50 * time.Microsecond)
				continue
			}
			if !errors.Is(err, ErrProcFailed) {
				return err
			}
			nc, info, perr := r.Park(c)
			if perr != nil {
				if errors.Is(perr, ErrSuperseded) {
					l.mu.Lock()
					l.superseded++
					l.mu.Unlock()
					return nil
				}
				return perr
			}
			l.mu.Lock()
			l.parks = append(l.parks, info)
			l.mu.Unlock()
			c = nc
			l.note(c)
		}
	}
}

func (l *resizeLog) note(c *Comm) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sizes == nil {
		l.sizes, l.resized = map[int][]int{}, map[int][]bool{}
	}
	l.sizes[c.Rank()] = append(l.sizes[c.Rank()], c.Size())
	l.resized[c.Epoch()] = append(l.resized[c.Epoch()], c.Resized())
}

// checkResized fails unless every comm seen in the epoch reported want
// from Resized(); the log's lock must be held.
func (l *resizeLog) checkResized(t *testing.T, epoch int, want bool) {
	t.Helper()
	flags := l.resized[epoch]
	if len(flags) == 0 {
		t.Fatalf("no comm of epoch %d seen", epoch)
	}
	for _, got := range flags {
		if got != want {
			t.Fatalf("a comm of epoch %d has Resized() = %v, want %v (all: %v)", epoch, got, want, flags)
		}
	}
}

// TestResizeGrow widens a 2-task run to 4: the two survivors park into
// the wider epoch (no respawn), exactly two new goroutines appear, and
// every task computes with size 4 afterwards.
func TestResizeGrow(t *testing.T) { bothTransports(t, testResizeGrow) }

func testResizeGrow(t *testing.T, tcp bool) {
	r, err := NewRunner(2, tcp)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var log resizeLog
	done := make(chan error, 1)
	go func() { done <- r.Run(log.body(r, &stop)) }()

	time.Sleep(time.Millisecond)
	epoch, err := r.Resize(4)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("resize installed epoch %d, want 1", epoch)
	}
	if got := r.Size(); got != 4 {
		t.Fatalf("Size() = %d after resize, want 4", got)
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := r.Spawned(); got != 4 {
		t.Fatalf("spawned %d goroutines, want 4 (2 launch + 2 grown)", got)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if log.superseded != 0 {
		t.Fatalf("%d goroutines superseded by a grow, want 0", log.superseded)
	}
	if len(log.parks) != 2 {
		t.Fatalf("%d survivors parked, want 2", len(log.parks))
	}
	log.checkResized(t, 0, false)
	log.checkResized(t, 1, true)
	for _, info := range log.parks {
		if info.Epoch != 1 || len(info.Replaced) != 2 ||
			info.Replaced[0] != 2 || info.Replaced[1] != 3 {
			t.Fatalf("park agreed on %+v, want epoch 1 replaced [2 3]", info)
		}
	}
	for rank := 0; rank < 4; rank++ {
		sizes := log.sizes[rank]
		if len(sizes) == 0 || sizes[len(sizes)-1] != 4 {
			t.Fatalf("rank %d saw sizes %v, want final size 4", rank, sizes)
		}
	}
}

// TestResizeShrink narrows a 4-task run to 2: ranks 2 and 3 exit
// superseded, no goroutine is ever spawned beyond the launch 4, and the
// survivors finish at size 2.
func TestResizeShrink(t *testing.T) { bothTransports(t, testResizeShrink) }

func testResizeShrink(t *testing.T, tcp bool) {
	r, err := NewRunner(4, tcp)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var log resizeLog
	done := make(chan error, 1)
	go func() { done <- r.Run(log.body(r, &stop)) }()

	time.Sleep(time.Millisecond)
	if _, err := r.Resize(2); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := r.Spawned(); got != 4 {
		t.Fatalf("spawned %d goroutines, want 4 (a shrink spawns nothing)", got)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if log.superseded != 2 {
		t.Fatalf("%d goroutines superseded, want 2 (ranks 2 and 3)", log.superseded)
	}
	if len(log.parks) != 2 {
		t.Fatalf("%d survivors parked, want 2", len(log.parks))
	}
	for rank := 0; rank < 2; rank++ {
		sizes := log.sizes[rank]
		if len(sizes) == 0 || sizes[len(sizes)-1] != 2 {
			t.Fatalf("rank %d saw sizes %v, want final size 2", rank, sizes)
		}
	}
}

// TestResizeThenShrinkFailure chains a grow with a localized failure in
// the wider epoch: Shrink must operate at the post-resize size, replace
// only the dead rank, and the run still converges.
func TestResizeThenShrinkFailure(t *testing.T) {
	r, err := NewRunner(2, false)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var log resizeLog
	done := make(chan error, 1)
	go func() { done <- r.Run(log.body(r, &stop)) }()

	time.Sleep(time.Millisecond)
	if _, err := r.Resize(4); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	// Rank 3 exists only in the resized epoch; shrinking it exercises the
	// post-resize bounds.
	if _, err := r.Shrink([]int{3}); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatalf("run failed: %v", err)
	}
	log.mu.Lock()
	log.checkResized(t, 2, false)
	log.mu.Unlock()
	// 2 launch + 2 grown + 1 replacement.
	if got := r.Spawned(); got != 5 {
		t.Fatalf("spawned %d goroutines, want 5", got)
	}
}

// TestResizeValidation covers the argument and lifecycle errors.
func TestResizeValidation(t *testing.T) {
	r, err := NewRunner(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resize(2); err == nil {
		t.Fatal("Resize before Run succeeded")
	}
	var stop atomic.Bool
	var log resizeLog
	done := make(chan error, 1)
	go func() { done <- r.Run(log.body(r, &stop)) }()
	time.Sleep(time.Millisecond)
	if _, err := r.Resize(0); err == nil {
		t.Fatal("Resize(0) succeeded")
	}
	if _, err := r.Resize(2); err == nil {
		t.Fatal("Resize to the current size succeeded")
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resize(4); err == nil {
		t.Fatal("Resize after the run finished succeeded")
	}
}
