// The restore side of every SOP. A communicator epoch can begin with a
// restore pending — the RestartFrom state at launch, the rollback of a
// localized recovery (DESIGN.md §3j), the redistribution of an in-flight
// resize (§3k) — and the first SOP the application reaches, whichever
// entry point it is, serves it through the one routine here: select the
// target generation, run the rollback prelude if survivors keep their
// memory, restore through the checkpoint engine, then the shared
// epilogue and the completion latch the system side is waiting on.
package drms

import (
	"fmt"
	"sync"
	"time"

	"drms/internal/ckpt"
	"drms/internal/msg"
)

// restoreKind is the restore waiting at the first SOP of an epoch.
type restoreKind uint8

const (
	restoreNone     restoreKind = iota
	restoreLaunch               // epoch 0 of a run launched with RestartFrom
	restoreRollback             // replacement epoch of a localized recovery
	restoreResize               // first epoch at an in-flight resize's new task count
)

// servePending runs the restore pending at this SOP, if any. served=false
// means none was and the SOP goes on to its own work. Every SOP entry
// point starts here, so no entry point can take a checkpoint in an epoch
// that owes a rollback or redistribution.
func (t *Task) servePending() (st Status, delta int, served bool, err error) {
	if t.pending == restoreNone {
		return Continued, 0, false, nil
	}
	st, delta, err = t.restore()
	return st, delta, true, err
}

// restoreOutcome is what a completed restore reports to the system side;
// PartialRecover and Resize present it as PartialStats and ResizeStats.
type restoreOutcome struct {
	gen      string // the generation everyone restored
	ranks    []int  // rollback: the ranks that loaded from the checkpoint
	from, to int    // task counts at the checkpoint and now
	mem, pfs int64  // cluster-wide restored bytes by serving tier
}

// attempt is one armed system operation on a running application — a
// localized recovery or an in-flight resize: written by the arming call,
// read by the tasks that carry it out, completed exactly once.
type attempt struct {
	target int // resize: the new task count

	mu   sync.Mutex
	gen  string // the generation to restore: pinned at arming (rollback), by rank 0 at the swap SOP (resize)
	fin  bool
	err  error
	out  restoreOutcome
	done chan struct{}
}

func (a *attempt) complete(out restoreOutcome, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.fin {
		return
	}
	a.fin, a.out, a.err = true, out, err
	close(a.done)
}

func (a *attempt) finished() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fin
}

func (a *attempt) setGen(gen string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.gen = gen
}

func (a *attempt) genOf() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gen
}

// arm installs a as the handle's recovery or resize attempt (slot is
// &h.partial or &h.resize) unless either kind is still in flight, and
// applies the updated rank -> node map, if any.
func (h *Handle) arm(slot **attempt, a *attempt, holders []int) error {
	h.pmu.Lock()
	defer h.pmu.Unlock()
	if h.partial != nil && !h.partial.finished() {
		return fmt.Errorf("drms: a partial recovery is in flight")
	}
	if h.resize != nil && !h.resize.finished() {
		return fmt.Errorf("drms: a resize is in flight")
	}
	if len(holders) > 0 {
		h.holders = append([]int(nil), holders...)
	}
	*slot = a
	return nil
}

// await blocks until the attempt completes, the application exits, or
// the timeout (0 = Config.PartialTimeout, itself defaulting to 30s)
// passes.
func (h *Handle) await(a *attempt, what string, timeout time.Duration) (restoreOutcome, error) {
	if timeout <= 0 {
		timeout = h.partialTimeout
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	select {
	case <-a.done:
		return a.out, a.err
	case <-h.done:
		return restoreOutcome{}, fmt.Errorf("drms: application exited during %s: %v", what, h.exitErr)
	case <-time.After(timeout):
		err := fmt.Errorf("drms: %s timed out after %v", what, timeout)
		// Mark the attempt failed so a late completion cannot
		// retroactively flip the caller's verdict.
		a.complete(restoreOutcome{}, err)
		return restoreOutcome{}, err
	}
}

func (h *Handle) armedPartial() *attempt {
	h.pmu.Lock()
	defer h.pmu.Unlock()
	return h.partial
}

func (h *Handle) armedResize() *attempt {
	h.pmu.Lock()
	defer h.pmu.Unlock()
	return h.resize
}

func (h *Handle) currentHolders() []int {
	h.pmu.Lock()
	defer h.pmu.Unlock()
	return h.holders
}

// restore is the one restore routine. What differs by kind is where the
// target comes from and who loads what: a launch restores RestartFrom on
// every task (SPMD or DRMS); a resize epoch restores the resize
// generation on every task under the new distributions — the paper's
// reconfigured restart, served from the memory tier when the generation
// lives there; a rollback epoch restores only the replacement ranks'
// sections while survivors decode their park snapshots. On failure the
// armed attempt, if any, completes with the error, and the task unwinds
// into the classic full-restart path.
func (t *Task) restore() (Status, int, error) {
	kind := t.pending
	t.pending = restoreNone
	target, what := t.cfg.RestartFrom, "restore"
	var at *attempt
	switch kind {
	case restoreRollback:
		at, what = t.handle.armedPartial(), "partial restore"
	case restoreResize:
		at, what = t.handle.armedResize(), "resize restore"
	}
	if kind != restoreLaunch {
		if at == nil || at.genOf() == "" {
			return Failed, 0, fmt.Errorf("drms: %s epoch with no armed attempt or no committed generation", what)
		}
		target = at.genOf()
	}
	m, st, ranks, err := t.load(kind, target)
	if err != nil {
		err = fmt.Errorf("drms: %s of %q: %w", what, target, err)
		if at != nil {
			at.complete(restoreOutcome{}, err)
		}
		if kind == restoreRollback {
			// The rank failure this rollback was absorbing stands: the
			// unwind reports it as a revocation, so whoever classifies the
			// exit sees a failure whether or not its Kill has landed yet.
			err = fmt.Errorf("%w: %w", err, msg.ErrRevoked)
		}
		return Failed, 0, err
	}
	t.handle.noteGeneration(target)
	t.snapshot(target)
	delta := t.Tasks() - m.Tasks
	if t.Rank() == 0 {
		switch kind {
		case restoreRollback:
			rtsPartialRestores.Inc()
		case restoreResize:
			rtsResizes.Inc()
			rtsRestores.Inc()
		default:
			rtsRestores.Inc()
		}
		rtsLastReconfigDelta.Set(float64(delta))
		rtsPoolTasks.Set(float64(t.Tasks()))
		// The tier byte totals in st are cluster-agreed, so rank 0's
		// verdict is the collective one.
		if st.TierMemBytes > 0 && st.TierPFSBytes == 0 {
			t.handle.restoreSrc.Store(2)
		} else {
			t.handle.restoreSrc.Store(1)
		}
	}
	if at != nil {
		// Every rank completes with the same agreed outcome; the first wins.
		at.complete(restoreOutcome{gen: target, ranks: ranks, from: m.Tasks, to: t.Tasks(),
			mem: st.TierMemBytes, pfs: st.TierPFSBytes}, nil)
	}
	if err := t.agreeStop(); err != nil {
		return Failed, 0, err
	}
	return Restored, delta, nil
}

// load moves the target generation's state into this task: through the
// checkpoint engine's whole-state plan, or — in a rollback epoch — the
// rollback prelude followed by the engine's subset plan for the ranks
// the prelude agreed on (returned for the outcome).
func (t *Task) load(kind restoreKind, target string) (m ckpt.Meta, st ckpt.Stats, ranks []int, err error) {
	// The holder map armed with the attempt (the spare node in the dead
	// one's slot, the new pool's nodes) applies from this epoch on: tier
	// lookups of this restore and replica placement of future checkpoints.
	if hh := t.handle.currentHolders(); hh != nil {
		t.cfg.TierHolders = hh
	}
	switch {
	case t.cfg.SPMDMode:
		m, st, err = ckpt.ReadSPMD(t.cfg.FS, target, t.comm, t.sg, t.arrays, t.cfg.Stream)
	case kind == restoreRollback:
		// Replacements have no snapshot; a survivor's may miss the
		// roll-back generation (the failure tore the checkpoint it
		// captured, and the supervisor pinned the previous one).
		needs := t.snap == nil || t.snap.gen != target
		if ranks, err = t.rollbackPrelude(target, needs); err != nil {
			return m, st, nil, err
		}
		m, st, err = ckpt.ReadDRMSPartial(t.cfg.FS, target, t.comm, t.sg, t.arrays, t.cfg.Stream,
			ckpt.PartialRestoreOptions{Tier: t.cfg.Tier, Holders: t.cfg.TierHolders,
				Ranks: ranks, NeedSegment: needs})
	default:
		m, st, err = ckpt.ReadDRMSOpts(t.cfg.FS, target, t.comm, t.sg, t.arrays, t.cfg.Stream,
			ckpt.RestoreOptions{Verify: t.cfg.Verify, Tier: t.cfg.Tier, Holders: t.cfg.TierHolders})
	}
	return m, st, ranks, err
}

// rollbackPrelude is what a localized recovery does before any state
// moves. Order matters for soundness: (1) agree on who restores from the
// checkpoint (needs: this task does); (2) agree the plan is provably
// safe — every task must find it so, or everyone fails together into the
// full-restart path, since no task may start a collective read peers
// refused to join; only then (3) survivors decode their park snapshot
// locally. Survivor elements covered by boundary pieces of the filtered
// read that follows are overwritten with bit-identical bytes (both equal
// the checkpoint), which is harmless. Returns the agreed restoring ranks.
func (t *Task) rollbackPrelude(target string, needs bool) (ranks []int, err error) {
	var mine byte
	if needs {
		mine = 1
	}
	frames, err := t.comm.Allgather([]byte{mine})
	if err != nil {
		return nil, err
	}
	for r, f := range frames {
		if len(f) > 0 && f[0] == 1 {
			ranks = append(ranks, r)
		}
	}
	verdict, reason := 1.0, "a peer found the plan unsafe"
	if err := ckpt.PartialEligible(t.cfg.FS, t.cfg.Tier, target, t.Tasks(), t.arrays, ranks, t.cfg.Stream); err != nil {
		verdict, reason = 0, err.Error()
	}
	agreed, err := t.comm.AllreduceF64(verdict, msg.Min)
	if err != nil {
		return nil, err
	}
	if agreed == 0 {
		return nil, fmt.Errorf("ineligible: %s", reason)
	}
	if needs {
		return ranks, nil
	}
	if err := t.sg.Decode(t.snap.seg); err != nil {
		return nil, fmt.Errorf("decoding park snapshot: %w", err)
	}
	for _, a := range t.arrays {
		b, ok := t.snap.arrays[a.Name()]
		if !ok {
			return nil, fmt.Errorf("park snapshot has no array %q", a.Name())
		}
		if err := a.SetLocalBytes(b); err != nil {
			return nil, fmt.Errorf("rolling back array %q: %w", a.Name(), err)
		}
	}
	return ranks, nil
}
