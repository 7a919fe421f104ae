// In-flight resize (DESIGN.md §3k): the paper's t1→t2 reconfigurable
// restart promoted to a live operation. At a checkpointing SOP the tasks
// agree (through the same rank-0 header broadcast every checkpoint uses)
// that this generation is a resize generation: it is written to the hot
// memory tier when one is configured (no pfs round trip), the runner
// installs a communicator epoch of the new task count via the shrink/park
// machinery (growing spawns fresh rank goroutines, shrinking
// parks-and-supersedes the retired ranks), and every task re-enters the
// application prologue where the first SOP of the new epoch restores the
// resize generation under the new distributions — the reconfigurable
// restart's redistribution, executed through cached plans, with no
// process restart and no incarnation bump.
//
// Fallback conditions are conservative, mirroring localized recovery:
// the resize generation is a perfectly ordinary committed checkpoint, so
// any failure after commit (a rank dying mid-swap, a torn tier replica)
// unwinds the incarnation and the classic restart path restores the same
// bytes; a failure before commit leaves the previous generation the
// restart point, exactly like any torn checkpoint.
package drms

import (
	"errors"
	"fmt"
	"time"
)

// errResize is the sentinel a task returns from the resize SOP after the
// new communicator epoch is installed: the body loop parks into the new
// epoch instead of treating it as a failure. Applications propagate it
// opaquely by returning the SOP's error, as with every other unwind.
var errResize = errors.New("drms: in-flight resize epoch swap")

// ResizeStats reports what one completed in-flight resize did.
type ResizeStats struct {
	// Gen is the resize generation everyone redistributed from.
	Gen string
	// From and To are the task counts before and after.
	From, To int
	// TierMemBytes / TierPFSBytes are the cluster-wide restored byte
	// totals by serving tier: a hot-path resize shows TierPFSBytes == 0 —
	// the state never touched the disk on its way to the new layout.
	TierMemBytes int64
	TierPFSBytes int64
}

// ResizeSpec describes one system-initiated in-flight resize request.
type ResizeSpec struct {
	// Tasks is the new task count.
	Tasks int
	// Holders, when non-empty, is the updated rank -> node map for the
	// new task count, applied to tier lookups of the redistribution and
	// replica placement of future checkpoints.
	Holders []int
	// Timeout bounds the wait for the application to reach a
	// checkpointing SOP and complete the swap (0 = Config.PartialTimeout,
	// itself defaulting to 30s).
	Timeout time.Duration
}

// Resize asks the application to change its task count in flight: at its
// next checkpointing SOP the tasks checkpoint (to the memory tier when
// one is configured), swap to a communicator of the new size, and
// redistribute — same incarnation, no process restart. Blocks until the
// swap completes, the application exits, or the timeout passes. On any
// error the incarnation is NOT killed; the caller decides whether to
// fall back to the classic checkpoint/stop/relaunch reconfigure.
func (h *Handle) Resize(spec ResizeSpec) (ResizeStats, error) {
	if !h.resizeOK {
		return ResizeStats{}, fmt.Errorf("drms: in-flight resize requires the DRMS scheme (not SPMDMode)")
	}
	if spec.Tasks < 1 {
		return ResizeStats{}, fmt.Errorf("drms: resize to %d tasks", spec.Tasks)
	}
	if spec.Tasks == h.runner.Size() {
		return ResizeStats{}, fmt.Errorf("drms: application already runs %d tasks", spec.Tasks)
	}
	at := &attempt{target: spec.Tasks, done: make(chan struct{})}
	if err := h.arm(&h.resize, at, spec.Holders); err != nil {
		return ResizeStats{}, err
	}
	out, err := h.await(at, "resize", spec.Timeout)
	return ResizeStats{Gen: out.gen, From: out.from, To: out.to, TierMemBytes: out.mem, TierPFSBytes: out.pfs}, err
}

// liveResize returns the armed resize that is still unfinished, arming a
// fresh one for target when there is none. Rank 0 alone calls it: before
// the header decision of an application-initiated resize (a pending
// system-initiated one keeps its target), and after the resize
// generation commits, to pin it — re-arming if the driver timed the
// attempt out meanwhile.
func (h *Handle) liveResize(target int) *attempt {
	h.pmu.Lock()
	defer h.pmu.Unlock()
	if h.resize != nil && !h.resize.finished() {
		return h.resize
	}
	h.resize = &attempt{target: target, done: make(chan struct{})}
	return h.resize
}

// ReconfigResize is the application-initiated resize SOP
// (drms_reconfig_resize): it behaves like ReconfigCheckpoint — including
// serving a pending restore or rollback first — but additionally asks
// the runtime to continue with newTasks tasks. When newTasks differs
// from the current task count the call does not return Continued: the
// checkpoint commits, the communicator epoch swaps, and the call's error
// unwinds the task into the new epoch (return it, exactly like any other
// SOP error); the application re-runs its prologue and its first SOP in
// the new epoch returns (Restored, newTasks-oldTasks). Collective: every
// task must pass the same newTasks.
func (t *Task) ReconfigResize(prefix string, newTasks int) (Status, int, error) {
	if st, delta, served, err := t.servePending(); served {
		return st, delta, err
	}
	if t.cfg.SPMDMode {
		return Failed, 0, fmt.Errorf("drms: in-flight resize requires the DRMS scheme")
	}
	if newTasks < 1 {
		return Failed, 0, fmt.Errorf("drms: resize to %d tasks", newTasks)
	}
	if t.Rank() == 0 && newTasks != t.Tasks() {
		t.handle.liveResize(newTasks)
	}
	if err := t.write(prefix, false); err != nil {
		return Failed, 0, err
	}
	return Continued, 0, nil
}
