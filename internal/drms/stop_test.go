package drms

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestStopDeliveredCollectively pins the SOP-collective stop contract:
// a stop request landing between two ranks' StopRequested polls must not
// split the communicator. The test forces the exact interleaving — rank
// 1 polls before the request is made, rank 0 polls after — that, with a
// raw per-rank flag read, made rank 0 exit while rank 1 blocked forever
// in the next Barrier. With the SOP-latched verdict both ranks observe
// the stop at the same (next) SOP and exit together. Each way an SOP
// agrees on the verdict gets the same interleaving: the generation
// header broadcast of a checkpoint and of an unarmed enabling SOP, and
// rank 0's stop broadcast (Task.agreeStop) at a restore.
func TestStopDeliveredCollectively(t *testing.T) {
	for _, tc := range []struct {
		name    string
		restart bool // the first SOP serves a restore of "job"
		sop     func(t *Task) (Status, int, error)
	}{
		{"ReconfigCheckpoint", false, func(t *Task) (Status, int, error) { return t.ReconfigCheckpoint("job") }},
		{"ReconfigChkEnable-unarmed", false, func(t *Task) (Status, int, error) { return t.ReconfigChkEnable("job") }},
		{"restore", true, func(t *Task) (Status, int, error) { return t.ReconfigCheckpoint("job") }},
	} {
		t.Run(tc.name, func(t *testing.T) { stopAtTheSameSOP(t, tc.restart, tc.sop) })
	}
}

func stopAtTheSameSOP(t *testing.T, restart bool, sop func(t *Task) (Status, int, error)) {
	fs := testFS()
	cfg := Config{Tasks: 2, FS: fs}
	if restart {
		if err := Run(cfg, func(t *Task) error {
			iter := 0
			t.Register("iter", &iter)
			_, _, err := t.ReconfigCheckpoint("job")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		cfg.RestartFrom = "job"
	}
	var rank1Polled, stopStored atomic.Bool
	var exitIter [2]atomic.Int64
	h, err := Start(cfg, func(t *Task) error {
		iter := 0
		t.Register("iter", &iter)
		for {
			if iter%2 == 0 {
				st, _, err := sop(t)
				if err != nil {
					return err
				}
				if want := restart && iter == 0; (st == Restored) != want {
					return fmt.Errorf("iteration %d: SOP status %v", iter, st)
				}
				if iter == 0 {
					// Serialize the polls around the stop request: rank 1
					// before it, rank 0 after it.
					if t.Rank() == 1 {
						if t.StopRequested() {
							return fmt.Errorf("stop visible before it was requested")
						}
						rank1Polled.Store(true)
					} else {
						for !stopStored.Load() {
							time.Sleep(time.Millisecond)
						}
					}
				}
				if t.StopRequested() {
					exitIter[t.Rank()].Store(int64(iter))
					return nil
				}
			}
			iter++
			if iter > 100 {
				return fmt.Errorf("stop request never observed")
			}
			if err := t.Comm().Barrier(); err != nil {
				return err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for !rank1Polled.Load() {
		time.Sleep(time.Millisecond)
	}
	h.RequestStop()
	stopStored.Store(true)
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	// Rank 0's poll ran strictly after RequestStop, but its SOP-latched
	// verdict (agreed at iteration 0, before the request) must say no —
	// both ranks ride to the next SOP and exit there together.
	e0, e1 := exitIter[0].Load(), exitIter[1].Load()
	if e0 != 2 || e1 != 2 {
		t.Fatalf("ranks exited at iterations %d and %d, want both at 2", e0, e1)
	}
}
