// Shrink/park: the ULFM MPI_Comm_shrink analog over the Revoke
// machinery, the substrate of localized recovery (DESIGN.md §3j), and
// its sibling Resize, the substrate of the in-flight resize (§3k). Both
// install the next communicator epoch through one path, Runner.install:
// the current epoch is retired — pending operations on it return
// ErrProcFailed, the localized-failure cousin of ErrRevoked — and a fresh
// transport becomes the current epoch, with fresh goroutines for exactly
// the ranks that need one. Survivors observe ErrProcFailed from whatever
// operation they were blocked in, keep their memory, and call
// Runner.Park to agree on the replacement communicator: Park blocks until
// the new epoch is installed and hands back a Comm of it with the same
// rank. A goroutine whose own rank was declared dead while it still ran
// (a lost node's task keeps running in the simulation), or was retired by
// a shrinking Resize, parks into ErrSuperseded and must exit: its state
// must not rejoin.
//
// A new epoch may be installed while a previous one's rollback is still
// in flight (a second failure mid-recovery): the in-flight epoch is
// retired exactly like the launch epoch was, everyone re-parks, and the
// replacement set grows.
package msg

import (
	"fmt"
	"sort"
)

// ShrinkInfo describes the epoch transition Park agreed on.
type ShrinkInfo struct {
	// Epoch is the new communicator's epoch.
	Epoch int
	// Replaced lists the ranks of the new epoch whose goroutine started
	// after the parked communicator's epoch — every rank a Shrink replaced
	// or a growing Resize added since, ascending. Survivors are exactly
	// the complement.
	Replaced []int
}

// Shrink declares the given ranks dead and installs a replacement
// communicator epoch of the same size: the current epoch's transport is
// aborted with ErrProcFailed (survivors unwind to Park instead of failing
// the run), and one replacement goroutine per dead rank is spawned
// running the same application body. Returns the new epoch number.
// Repeated calls stack: each retires the then-current epoch. Errors when
// the run has not started, has already finished, or was killed.
func (r *Runner) Shrink(dead []int) (int, error) {
	dead = append([]int(nil), dead...)
	sort.Ints(dead)
	return r.install("Shrink", false, func(cur int) (int, []int, error) {
		for i, d := range dead {
			if d < 0 || d >= cur {
				return 0, nil, fmt.Errorf("msg: shrink of rank %d in a %d-task run", d, cur)
			}
			if i > 0 && d == dead[i-1] {
				return 0, nil, fmt.Errorf("msg: rank %d declared dead twice", d)
			}
		}
		return cur, dead, nil
	})
}

// Resize installs a communicator epoch with a different task count — the
// substrate of the in-flight resize SOP (DESIGN.md §3k). Like Shrink it
// retires the current epoch's transport with ErrProcFailed so every
// running task unwinds to Park; unlike Shrink no rank is declared dead:
//
//   - growing (newN > current): ranks [current, newN) get fresh
//     goroutines running the same application body; survivors park into
//     the wider communicator with their rank and memory intact.
//   - shrinking (newN < current): ranks [newN, current) are retired —
//     their Park returns ErrSuperseded and they must exit; the remaining
//     ranks park into the narrower communicator.
//
// Returns the new epoch number. The caller is responsible for having
// made the tasks' state recoverable at newN tasks first (the resize SOP
// checkpoints before swapping). Errors when the run has not started, has
// finished, was killed, or newN equals the current size.
func (r *Runner) Resize(newN int) (int, error) {
	return r.install("Resize", true, func(cur int) (int, []int, error) {
		if newN < 1 || newN == cur {
			return 0, nil, fmt.Errorf("msg: resize of a %d-task run to %d tasks", cur, newN)
		}
		var grown []int
		for d := cur; d < newN; d++ {
			grown = append(grown, d)
		}
		return newN, grown, nil
	})
}

// install is the one path to a new epoch. Under mu it checks that the run
// is live and asks plan, given the current task count, for the new one
// and the ranks that get fresh goroutines; it opens the new transport,
// makes it current and marks those ranks, and every rank the new size
// drops, as reborn in it. Then it retires the old epoch — aborted with
// ErrProcFailed after the new one is installed, so a survivor that
// unwinds always finds the next epoch to park into — starts the fresh
// ranks and, over TCP, shuts the old mesh down. Nothing refers to the old
// transport afterwards but the comms its tasks still hold until they park.
// resized tells a Resize's epoch from a Shrink's.
func (r *Runner) install(op string, resized bool, plan func(cur int) (int, []int, error)) (int, error) {
	r.mu.Lock()
	var err error
	switch {
	case !r.ran:
		err = fmt.Errorf("msg: %s before Run", op)
	case r.fin || r.active == 0:
		err = fmt.Errorf("msg: %s after the run finished", op)
	case r.killed.Load() || r.cause != nil:
		err = ErrRevoked
	}
	cur, size, fresh := r.size, 0, []int(nil)
	if err == nil {
		size, fresh, err = plan(cur)
	}
	var tr Transport
	var tcp *TCPTransport
	switch {
	case err != nil:
	case r.useTCP:
		tcp, err = NewTCPTransport(size)
		tr = tcp
	default:
		tr = NewLocalTransport(size)
	}
	if err != nil {
		r.mu.Unlock()
		return 0, err
	}
	old, oldTCP := r.tr, r.tcp
	r.seq++
	r.size, r.tr, r.tcp, r.resized = size, tr, tcp, resized
	for d := size; d < cur; d++ {
		r.reborn[d] = r.seq
	}
	comms := make([]*Comm, len(fresh))
	for i, d := range fresh {
		r.reborn[d] = r.seq
		comms[i] = r.commLocked(d)
	}
	r.active += len(comms)
	seq := r.seq
	r.cond.Broadcast()
	r.mu.Unlock()
	old.Abort(ErrProcFailed)
	for _, c := range comms {
		go r.runTask(c)
	}
	if oldTCP != nil {
		oldTCP.Shutdown()
	}
	if resized {
		msgResizes.Inc()
	} else {
		msgShrinks.Inc()
	}
	return seq, nil
}

// Size returns the task count of the current communicator epoch.
func (r *Runner) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Park blocks until an epoch newer than c's is installed (by Shrink or
// Resize) and returns the caller's communicator in the new epoch, with
// the info of the transition. It returns ErrSuperseded when the caller's
// rank was itself declared dead or retired by a shrinking Resize (the
// rank no longer belongs to the caller — it must exit without touching
// shared state), and ErrRevoked when the run was killed or failed for
// good while parked.
func (r *Runner) Park(c *Comm) (*Comm, ShrinkInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.killed.Load() || r.cause != nil {
			return nil, ShrinkInfo{}, ErrRevoked
		}
		if r.reborn[c.rank] > c.epoch {
			return nil, ShrinkInfo{}, ErrSuperseded
		}
		if r.seq > c.epoch {
			// A rank of the current epoch reborn after c's was last marked
			// by a fresh start: a retirement leaves it outside the epoch
			// until a grow marks it again.
			info := ShrinkInfo{Epoch: r.seq}
			for d := 0; d < r.size; d++ {
				if r.reborn[d] > c.epoch {
					info.Replaced = append(info.Replaced, d)
				}
			}
			return r.commLocked(c.rank), info, nil
		}
		r.cond.Wait()
	}
}

// Epoch returns the runner's current communicator epoch.
func (r *Runner) Epoch() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
