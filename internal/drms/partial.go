// Localized recovery (DESIGN.md §3j): when a supervised application
// loses ranks, the supervisor calls Handle.PartialRecover instead of
// Kill. The runner shrinks the communicator — survivors park in place at
// the point of failure, replacement goroutines are spawned for exactly
// the dead ranks — and every task meets a rollback collective at the
// first SOP of the replacement epoch. Survivors roll back to the last
// committed checkpoint from an in-process park snapshot (a memcpy, no
// storage traffic); replacements restore only their assigned sections of
// the checkpoint through ckpt.ReadDRMSPartial (restore.go holds the
// routine, shared with every other restore). The rollback is sound
// because eligibility is agreed collectively before any state moves, and
// every doubt — a changed piece plan, a chain gap, too many lost replica
// holders — takes the conservative branch: the attempt fails, the
// supervisor kills the incarnation, and the classic full-restart path
// runs.
package drms

import (
	"fmt"
	"time"
)

// parkSnapshot is one task's in-memory copy of its committed state: the
// encoded data segment and every array's local section, tagged with the
// checkpoint generation they equal. A survivor rolls back to the last
// SOP by decoding it — this is what "survivors keep their state" means
// operationally.
type parkSnapshot struct {
	gen    string
	seg    []byte
	arrays map[string][]byte
}

// snapshot captures the park snapshot after a committed checkpoint or
// restore (Config.Partial runs only), re-encoding each array into the
// previous snapshot's buffer. Best-effort: a failed capture clears the
// snapshot, and the task then restores from the checkpoint like a
// replacement would.
func (t *Task) snapshot(gen string) {
	if !t.cfg.Partial {
		return
	}
	payload, err := t.sg.Encode()
	if err != nil {
		t.snap = nil
		return
	}
	if t.snap == nil {
		t.snap = &parkSnapshot{arrays: make(map[string][]byte, len(t.arrays))}
	}
	t.snap.gen, t.snap.seg = gen, payload
	for _, a := range t.arrays {
		t.snap.arrays[a.Name()] = a.AppendLocalBytes(t.snap.arrays[a.Name()][:0])
	}
}

// PartialStats reports what one completed partial recovery did.
type PartialStats struct {
	// Gen is the generation everyone rolled back to.
	Gen string
	// Ranks are the ranks that restored from the checkpoint (the
	// replacements, plus any survivor whose snapshot missed the target).
	Ranks []int
	// TierMemBytes / TierPFSBytes are the cluster-wide restored byte
	// totals by serving tier — the counters proving no full-state read.
	TierMemBytes int64
	TierPFSBytes int64
}

// PartialRecoverSpec describes one localized recovery request.
type PartialRecoverSpec struct {
	// Dead lists the ranks lost with their node.
	Dead []int
	// From is the committed generation prefix ("job.g3") everyone rolls
	// back to — pinned by the supervisor before the shrink so a torn
	// newer generation cannot be chosen by accident.
	From string
	// Holders, when non-empty, is the updated rank -> node map (the spare
	// node in the dead one's slot), applied to tier lookups of this
	// restore and replica placement of future checkpoints.
	Holders []int
	// Timeout bounds the wait for the rollback collective
	// (0 = Config.PartialTimeout, itself defaulting to 30s).
	Timeout time.Duration
}

// PartialRecover replaces the dead ranks and rolls the application back
// to the From generation without unwinding the survivors: the ULFM-style
// shrink/agree sequence over the Revoke machinery. Blocks until the
// rollback collective completes, the application exits, or the timeout
// passes; the returned stats carry the agreed tier byte counters. On any
// error the incarnation is NOT killed — that decision (usually: kill and
// take the full-restart path) stays with the caller.
func (h *Handle) PartialRecover(spec PartialRecoverSpec) (PartialStats, error) {
	if !h.partialOK {
		return PartialStats{}, fmt.Errorf("drms: partial recovery is not enabled (Config.Partial)")
	}
	if len(spec.Dead) == 0 {
		return PartialStats{}, fmt.Errorf("drms: partial recovery of zero ranks")
	}
	if spec.From == "" {
		return PartialStats{}, fmt.Errorf("drms: no committed generation to roll back to")
	}
	at := &attempt{gen: spec.From, done: make(chan struct{})}
	if err := h.arm(&h.partial, at, spec.Holders); err != nil {
		return PartialStats{}, err
	}
	if _, err := h.runner.Shrink(spec.Dead); err != nil {
		at.complete(restoreOutcome{}, err)
		return PartialStats{}, err
	}
	out, err := h.await(at, "partial recovery", spec.Timeout)
	return PartialStats{Gen: out.gen, Ranks: out.ranks, TierMemBytes: out.mem, TierPFSBytes: out.pfs}, err
}

// TaskSpawns returns how many task goroutines this run ever started:
// Tasks at launch plus one per replaced rank. The chaos tests read it to
// prove survivors' goroutines persisted across a localized recovery.
func (h *Handle) TaskSpawns() int64 { return h.runner.Spawned() }
