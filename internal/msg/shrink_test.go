package msg

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// shrinkBody is the canonical survivor loop: allreduce a stop flag until
// everyone agrees to finish; on ErrProcFailed park and continue in the
// replacement epoch; on ErrSuperseded (own rank declared dead) exit
// cleanly. It records every Park outcome for the assertions.
type shrinkLog struct {
	mu         sync.Mutex
	superseded int
	parks      []ShrinkInfo
}

func (l *shrinkLog) body(r *Runner, stop *atomic.Bool) func(c *Comm) error {
	return func(c *Comm) error {
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
		}
	}
}

// bothTransports runs an epoch-swap test in process and over TCP, where
// retiring an epoch also shuts its socket mesh down under the survivors.
func bothTransports(t *testing.T, f func(t *testing.T, tcp bool)) {
	t.Run("local", func(t *testing.T) { f(t, false) })
	t.Run("tcp", func(t *testing.T) { f(t, true) })
}

// TestShrinkReplacesOnlyDeadRank: one rank dies, survivors park in place
// and continue in the replacement epoch, the dead rank's original
// goroutine exits superseded, and exactly one replacement goroutine is
// ever spawned.
func TestShrinkReplacesOnlyDeadRank(t *testing.T) { bothTransports(t, testShrinkReplacesOnlyDeadRank) }

func testShrinkReplacesOnlyDeadRank(t *testing.T, tcp bool) {
	const n = 4
	r, err := NewRunner(n, tcp)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var log shrinkLog
	done := make(chan error, 1)
	go func() { done <- r.Run(log.body(r, &stop)) }()

	time.Sleep(time.Millisecond) // let epoch-0 collectives flow
	epoch, err := r.Shrink([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("shrink installed epoch %d, want 1", epoch)
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := r.Spawned(); got != n+1 {
		t.Fatalf("spawned %d goroutines, want %d (only the dead rank is replaced)", got, n+1)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if log.superseded != 1 {
		t.Fatalf("%d goroutines exited superseded, want 1 (the dead rank's original)", log.superseded)
	}
	if len(log.parks) != n-1 {
		t.Fatalf("%d survivors parked, want %d", len(log.parks), n-1)
	}
	for _, info := range log.parks {
		if info.Epoch != 1 || len(info.Replaced) != 1 || info.Replaced[0] != 2 {
			t.Fatalf("park agreed on %+v, want epoch 1 replaced [2]", info)
		}
	}
}

// TestShrinkDuringShrink: a second failure lands while the first
// shrink's recovery is still in flight. The in-flight epoch is retired
// like the launch epoch was, the replacement set grows, and the run
// still converges with exactly two replacements.
func TestShrinkDuringShrink(t *testing.T) {
	const n = 4
	r, err := NewRunner(n, false)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var log shrinkLog
	done := make(chan error, 1)
	go func() { done <- r.Run(log.body(r, &stop)) }()

	time.Sleep(time.Millisecond)
	if _, err := r.Shrink([]int{1}); err != nil {
		t.Fatal(err)
	}
	// No waiting for the first recovery to settle: the second failure
	// races the parks on purpose.
	if _, err := r.Shrink([]int{3}); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := r.Spawned(); got != n+2 {
		t.Fatalf("spawned %d goroutines, want %d", got, n+2)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if log.superseded != 2 {
		t.Fatalf("%d goroutines exited superseded, want 2", log.superseded)
	}
	// A survivor that parked across both shrinks in one go sees the
	// union; one that parked twice sees the deltas. Either way the last
	// park of every surviving rank must land on the final epoch.
	if r.Epoch() != 2 {
		t.Fatalf("final epoch %d, want 2", r.Epoch())
	}
}

// TestKillWakesParked: Kill must wake goroutines blocked in Park (no
// shrink is ever installed here) and hand them ErrRevoked, so a run
// killed mid-recovery unwinds instead of hanging.
func TestKillWakesParked(t *testing.T) {
	const n = 2
	r, err := NewRunner(n, false)
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, n)
	done := make(chan error, 1)
	go func() {
		done <- r.Run(func(c *Comm) error {
			_, _, err := r.Park(c)
			parked <- err
			return err
		})
	}()
	time.Sleep(time.Millisecond)
	r.Kill()
	for i := 0; i < n; i++ {
		if err := <-parked; !errors.Is(err, ErrRevoked) {
			t.Fatalf("parked task woke with %v, want ErrRevoked", err)
		}
	}
	if err := <-done; !errors.Is(err, ErrRevoked) {
		t.Fatalf("run ended with %v, want ErrRevoked", err)
	}
}

// TestFailureInReplacementEpoch: the spare itself dies during the
// recovery (its goroutine returns an error in the replacement epoch).
// The run must unwind for good — survivors parked at that point wake
// with ErrRevoked, and the run reports the spare's error.
func TestFailureInReplacementEpoch(t *testing.T) {
	const n = 3
	r, err := NewRunner(n, false)
	if err != nil {
		t.Fatal(err)
	}
	spareErr := errors.New("spare lost during restore")
	var stop atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- r.Run(func(c *Comm) error {
			if c.Epoch() > 0 {
				return spareErr // the replacement dies immediately
			}
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
					continue
				}
				if !errors.Is(err, ErrProcFailed) {
					return err
				}
				if _, _, perr := r.Park(c); perr != nil {
					if errors.Is(perr, ErrSuperseded) {
						return nil
					}
					return perr
				}
				// The spare is already dead; the next collective (or this
				// park round) observes the revocation.
			}
		})
	}()
	time.Sleep(time.Millisecond)
	if _, err := r.Shrink([]int{0}); err != nil {
		t.Fatal(err)
	}
	err = <-done
	if !errors.Is(err, spareErr) {
		t.Fatalf("run ended with %v, want the spare's error", err)
	}
}

// TestParkSupersededWithoutOp: a dead rank's goroutine that calls Park
// directly (without first failing an operation) must still learn it was
// superseded, not be handed the replacement communicator.
func TestParkSupersededWithoutOp(t *testing.T) {
	const n = 2
	r, err := NewRunner(n, false)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var log shrinkLog
	body := log.body(r, &stop)
	done := make(chan error, 1)
	go func() {
		done <- r.Run(func(c *Comm) error {
			if c.Epoch() == 0 && c.Rank() == 1 {
				// Park straight away: the shrink below declares this rank
				// dead, so Park must answer ErrSuperseded.
				_, _, perr := r.Park(c)
				if !errors.Is(perr, ErrSuperseded) {
					return errors.New("dead rank's park did not supersede")
				}
				return nil
			}
			return body(c)
		})
	}()
	time.Sleep(time.Millisecond)
	if _, err := r.Shrink([]int{1}); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

// TestShrinkValidation: a rank outside the run, or one rank named twice
// (which would start two goroutines for it), installs no epoch.
func TestShrinkValidation(t *testing.T) {
	r, err := NewRunner(3, false)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var log shrinkLog
	done := make(chan error, 1)
	go func() { done <- r.Run(log.body(r, &stop)) }()
	time.Sleep(time.Millisecond)
	for _, dead := range [][]int{{3}, {-1}, {2, 1, 2}} {
		if _, err := r.Shrink(dead); err == nil {
			t.Errorf("Shrink(%v) succeeded", dead)
		}
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 0 || r.Spawned() != 3 {
		t.Fatalf("epoch %d, %d goroutines after rejected shrinks; want 0 and 3", r.Epoch(), r.Spawned())
	}
}
