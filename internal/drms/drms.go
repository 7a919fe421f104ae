// Package drms is the Go binding of the DRMS programming model (§2-3 of
// the paper): SPMD applications structured as schedulable and observable
// quanta (SOQs) whose boundaries (SOPs) are the points where the
// application can be checkpointed, reconfigured, or migrated.
//
// An application is a function func(*Task) error executed by every task.
// It registers its replicated variables, declares its distributed arrays,
// and calls ReconfigCheckpoint at its SOP. Launched fresh, the call takes
// a checkpoint; launched with RestartFrom, the first call restores the
// saved state — replicated variables, execution context, and every array
// under the application's current distribution, which may span a
// different number of tasks than took the checkpoint (reconfigurable
// restart). This mirrors the Fortran skeleton of Figure 1:
//
//	iter := 0
//	t.Register("iter", &iter)
//	u := drms.NewArray[float64](t, "u", dist)
//	for {
//	    status, delta, err := t.ReconfigCheckpoint("ck")
//	    if status == drms.Restored && delta != 0 {
//	        // distributions were already built for the new task count;
//	        // recompute control variables if needed
//	    }
//	    if iter >= maxIter { break }
//	    ... compute one SOQ ...
//	    iter++
//	}
//
// One deviation from the Fortran binding is documented in DESIGN.md: Go
// cannot longjmp into a restored stack, so restart re-executes the
// application prologue (cheap, idempotent initialization) and the restore
// happens at the first SOP call rather than inside drms_initialize.
package drms

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drms/internal/array"
	"drms/internal/ckpt"
	"drms/internal/dist"
	"drms/internal/frame"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/seg"
	"drms/internal/stream"
)

// Status reports what a checkpoint call did.
type Status int

const (
	// Continued: a checkpoint was taken (or skipped, for the enabling
	// variant) and execution continues.
	Continued Status = iota
	// Restored: the application state was just loaded from a checkpoint;
	// execution continues from this SOP.
	Restored
	// Failed: the checkpoint or restore did not complete — a peer died,
	// the communicator was revoked, or storage failed. Nothing was
	// promoted: an interrupted checkpoint never becomes "latest" (meta
	// commits are atomic and written last), so the previous checkpoint
	// remains the restart point. The accompanying error says why; the
	// task should unwind and let the system take the restart path
	// (Table 2 failure semantics).
	Failed
)

func (s Status) String() string {
	switch s {
	case Restored:
		return "restored"
	case Failed:
		return "failed"
	default:
		return "continued"
	}
}

// Config describes one launch of a DRMS application.
type Config struct {
	// Tasks is the task count for this run.
	Tasks int
	// FS is the parallel file system holding checkpoints.
	FS *pfs.System
	// RestartFrom, when non-empty, names the checkpoint prefix to restore
	// at the application's first SOP. A user-facing prefix resolves to
	// its newest committed generation; a generation prefix ("job.g3")
	// pins the restart to exactly that generation — the recovery
	// supervisor uses pinning to restart from the newest *verified*
	// generation after quarantining a corrupt one.
	RestartFrom string
	// Keep is how many committed checkpoint generations each prefix
	// retains (minimum 1, the default). Supervised applications keep at
	// least 2, so a corrupt newest generation leaves an older fallback.
	Keep int
	// Verify makes a damaged restore's *ckpt.CorruptError name the piece:
	// every restore CRCs each piece it reads and the whole stream, and
	// Verify adds per-piece attribution (ckpt.RestoreOptions.Verify).
	Verify bool
	// TCP selects the socket transport instead of in-process channels.
	TCP bool
	// Stream tunes the array streaming used by checkpoint and restart.
	Stream stream.Options
	// SPMDMode makes checkpoint calls use the conventional per-task
	// scheme instead of the reconfigurable DRMS scheme (the paper's
	// baseline; restart then requires the same task count).
	SPMDMode bool
	// AnchorEvery > 1 makes checkpoints a delta chain: every
	// AnchorEvery-th generation is a self-contained anchor and the ones
	// between are deltas that carry unchanged pieces forward by
	// back-pointer. 0 or 1 (the default) writes anchors only — deltas
	// need a bounded anchor interval, so they are never taken without
	// one — and skips the contribution fingerprints only a following
	// delta would read. Ignored in SPMD mode.
	AnchorEvery int
	// Codec selects the piece codec (pieceCodec): raw, flate, or the
	// zero value ckpt.CodecAuto — compress when the bandwidth model says
	// it pays, where a chain or the tier is configured; raw otherwise.
	Codec ckpt.CodecMode
	// Tier, when non-nil, enables the hot in-memory checkpoint tier: at
	// commit time every canonical piece is replicated into peers' memory
	// (overlapped with the pfs write pipeline), restores are served from
	// peer memory when every byte survives there, and — with DemoteEvery
	// set — intermediate generations skip the pfs entirely.
	Tier *ckpt.MemTier
	// Replicas is how many peers beyond the writer hold each payload
	// (k in the k+1 replication of DESIGN.md §3h). 0 means the writer's
	// own node only; values are clamped to the task count.
	Replicas int
	// TierHolders maps task rank to holder (node) id for tier placement.
	// The recovery supervisor passes the incarnation's node ids so
	// replicas land in distinct nodes' memory and die with them. Empty or
	// mismatched lengths fall back to rank ids.
	TierHolders []int
	// DemoteEvery > 1 makes the rotation span tiers: every DemoteEvery-th
	// generation is written through to the pfs, the ones between live
	// only in peer memory (diskless). The first generation of a prefix is
	// always written through, so a durable fallback always exists. 0 or 1
	// writes every generation through (the tier is then purely a restore
	// accelerator).
	DemoteEvery int
	// Fault, when non-nil, wraps the application's transport in a
	// deterministic fault injector (tests): the victim rank dies at the
	// configured operation, or when the injector is armed. The injector
	// is available on the Handle.
	Fault *msg.FaultSpec
	// OnFault, with Fault set, fires exactly once at the moment of the
	// injected death, from the victim's goroutine, before the victim's
	// operation returns ErrKilled. The recovery supervisor uses it to run
	// the paper's failure procedure (revoke the communicator, then
	// restart) on injected faults; wiring it here, before tasks launch,
	// avoids the registration race a post-Start OnKill call would have.
	OnFault func()
	// Partial enables localized recovery (DESIGN.md §3j): on
	// Handle.PartialRecover the supervisor replaces only the dead ranks.
	// Survivors park in place at the point of failure, keep their memory,
	// and roll back to the last committed SOP from an in-process
	// snapshot, while replacement tasks restore just their assigned
	// sections of the checkpoint. Off (the default), any failure unwinds
	// the whole incarnation — the classic full-restart path. Ignored in
	// SPMD mode (partial restore needs the DRMS piece plan).
	Partial bool
	// PartialTimeout bounds how long PartialRecover waits for the
	// rollback collective before declaring the attempt failed (0 = 30s).
	PartialTimeout time.Duration
	// Lease identifies this incarnation to the control plane across
	// coordinator restarts: the coordinator stamps a unique epoch here,
	// records it in its own persisted state, and a restarted coordinator
	// re-adopts a surviving handle only when the leases match. 0 = not
	// leased (unmanaged runs).
	Lease int64
}

// Handle controls a running application (the system side of the
// environment: the JSA uses it for system-initiated checkpoints, the
// resource coordinator for failure handling).
type Handle struct {
	enable  atomic.Bool
	exitErr error // set before done closes; read by Wait (any number of callers)
	done    chan struct{}
	stopReq atomic.Bool
	runner  *msg.Runner
	fault   *msg.FaultTransport
	// committed is 1 + the newest generation number this run has
	// committed (written and promoted) or restored from; 0 = none yet.
	// The recovery supervisor reads it after a failure to decide whether
	// the application made checkpoint progress since the last restart —
	// the livelock signal that burns the retry budget faster.
	committed atomic.Int64
	// restoreSrc records which tier served this run's restore:
	// 0 = no restore, 1 = pfs, 2 = peer memory.
	restoreSrc atomic.Int32
	// lease is the control plane's incarnation lease (Config.Lease),
	// immutable after Start.
	lease int64
	// Localized-recovery and resize state: partialOK/resizeOK/
	// partialTimeout are immutable after Start; partial and resize are
	// the armed attempts and holders the current rank -> node map, all
	// behind pmu.
	partialOK      bool
	resizeOK       bool
	partialTimeout time.Duration
	pmu            sync.Mutex
	partial        *attempt
	resize         *attempt
	holders        []int
}

// Lease returns the incarnation lease the control plane stamped into
// this run (0 when unleased). A restarted coordinator matches it
// against its persisted records to prove a surviving handle is the
// incarnation it has on file.
func (h *Handle) Lease() int64 { return h.lease }

// LastRestoreSource reports the tier that served this run's restore
// ("mem" when every byte came from peer memory, "pfs" otherwise);
// ok=false when the run has not restored. The observability layer
// exposes it per application as the last-restore-source gauge.
func (h *Handle) LastRestoreSource() (src string, ok bool) {
	switch h.restoreSrc.Load() {
	case 2:
		return "mem", true
	case 1:
		return "pfs", true
	}
	return "", false
}

// noteGeneration records checkpoint progress: the newest generation this
// run committed or restored.
func (h *Handle) noteGeneration(prefix string) {
	if _, g, ok := ckpt.GenOf(prefix); ok {
		for {
			cur := h.committed.Load()
			if int64(g)+1 <= cur || h.committed.CompareAndSwap(cur, int64(g)+1) {
				return
			}
		}
	}
}

// CommittedGen reports the newest checkpoint generation number this run
// has committed (or restored from); ok=false when no rotated generation
// has been seen. This is the progress signal the recovery supervisor
// compares across failures.
func (h *Handle) CommittedGen() (int, bool) {
	v := h.committed.Load()
	return int(v - 1), v > 0
}

// Fault returns the fault injector configured via Config.Fault (nil
// otherwise). Tests arm it to kill the victim at a precise protocol
// point.
func (h *Handle) Fault() *msg.FaultTransport { return h.fault }

// EnableCheckpoint arms the next ReconfigChkEnable call: the application
// will take a checkpoint at its next enabling SOP (system-initiated
// checkpointing, Table 2).
func (h *Handle) EnableCheckpoint() { h.enable.Store(true) }

// RequestStop asks the application to exit at its next SOP (used by the
// scheduler to vacate processors after archiving state).
func (h *Handle) RequestStop() { h.stopReq.Store(true) }

// Kill terminates the application by revoking its communicator: every
// task's pending and future communication returns msg.ErrRevoked, so
// all tasks unwind promptly to their error paths instead of dying
// mid-I/O. This is what a processor failure does to the whole
// application in the paper's model (§4). Wait returns an error for a
// killed application.
func (h *Handle) Kill() { h.runner.Kill() }

// Killed reports whether the application was killed.
func (h *Handle) Killed() bool { return h.runner.Killed() }

// Done returns a channel closed when the application has exited.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks until the application exits and returns its first error.
// Idempotent across callers: every waiter sees the same exit status, so
// a coordinator re-adopting a surviving run can Wait alongside (or
// after) the dead coordinator's watcher without racing for the error.
func (h *Handle) Wait() error {
	<-h.done
	return h.exitErr
}

// Task is one task's view of the DRMS run-time system.
type Task struct {
	comm   *msg.Comm
	cfg    Config
	handle *Handle
	sg     *seg.Segment
	arrays []ckpt.ArrayRef
	// pending is the restore this epoch's first SOP must serve before
	// any checkpoint (restore.go). snap is the task's park snapshot (nil
	// for a replacement task, which restores from the checkpoint instead).
	pending restoreKind
	snap    *parkSnapshot
	// rots caches one rotation view per checkpoint prefix, so repeated
	// SOPs don't re-list the checkpoint directory every time. Only rank
	// 0 queries them (it is the rotation's single writer).
	rots map[string]*ckpt.RotationView
	// memRun counts, per prefix, the consecutive memory-only generations
	// since the last write-through — rank 0's state behind the
	// DemoteEvery rotation decision.
	memRun map[string]int
	// sawSOP / stopSOP implement collective stop delivery: every SOP
	// agrees (through rank 0's header broadcast, or its stop broadcast on
	// the restore paths) whether
	// the system's stop request is visible to this epoch, and the verdict
	// is latched here. StopRequested returns the latched verdict once an
	// SOP has run, so a stop landing between two ranks' polls cannot
	// split the communicator — some tasks exiting while the rest block
	// in the next collective.
	sawSOP  bool
	stopSOP bool
}

// Rank returns this task's rank.
func (t *Task) Rank() int { return t.comm.Rank() }

// Tasks returns the current task count.
func (t *Task) Tasks() int { return t.comm.Size() }

// Comm exposes the message-passing substrate for the computation section
// of SOQs.
func (t *Task) Comm() *msg.Comm { return t.comm }

// FS returns the parallel file system.
func (t *Task) FS() *pfs.System { return t.cfg.FS }

// Segment exposes the task's data segment registry (size model, context).
func (t *Task) Segment() *seg.Segment { return t.sg }

// Register adds a replicated variable to the data segment (must be called
// before the first SOP, symmetrically on all tasks).
func (t *Task) Register(name string, ptr any) { t.sg.Register(name, ptr) }

// StopRequested reports whether the system asked the application to exit
// at its next SOP. The verdict is collective: once this task has passed
// an SOP, the value is the one agreed there by all tasks, so every rank
// observes the stop at the same SOP and the application exits together
// (a raw per-rank read of the flag could split the communicator — the
// ranks that saw the store exiting while the rest block in the next
// collective). Before the first SOP the raw flag is returned.
func (t *Task) StopRequested() bool {
	if t.sawSOP {
		return t.stopSOP
	}
	return t.handle.stopReq.Load()
}

// latchStop records an SOP's collectively-agreed stop verdict. The flag
// is monotone, so a latched true sticks across later SOPs.
func (t *Task) latchStop(stop bool) {
	t.sawSOP = true
	t.stopSOP = t.stopSOP || stop
}

// agreeStop broadcasts rank 0's view of the stop request, which every
// task latches: a restore has no generation header to carry it.
func (t *Task) agreeStop() error {
	var w byte
	if t.Rank() == 0 && t.handle.stopReq.Load() {
		w = 1
	}
	b, err := t.comm.Bcast(0, []byte{w})
	if err == nil && len(b) != 1 {
		err = fmt.Errorf("drms: a %d-byte stop verdict", len(b))
	}
	if err != nil {
		return err
	}
	t.latchStop(b[0] == 1)
	return nil
}

// NewArray declares a distributed array in the application's global data
// set and registers it with the run-time system for checkpoint/restart
// (drms_create_distribution + drms_distribute).
func NewArray[T array.Elem](t *Task, name string, d *dist.Distribution) (*array.Array[T], error) {
	a, err := array.New[T](t.comm, name, d)
	if err != nil {
		return nil, err
	}
	for i, r := range t.arrays {
		if r.Name() == name {
			// Re-declaration (e.g. after an explicit redistribution)
			// replaces the handle.
			t.arrays[i] = ckpt.Ref(a)
			return a, nil
		}
	}
	t.arrays = append(t.arrays, ckpt.Ref(a))
	return a, nil
}

// ReconfigCheckpoint is the mandatory SOP (drms_reconfig_checkpoint): on
// a fresh run it writes a checkpoint under the given prefix and returns
// (Continued, 0). On the first call of a restarted run it loads the
// RestartFrom checkpoint instead and returns (Restored, delta) where
// delta = current tasks - checkpointing tasks. A checkpoint or restore
// that cannot complete — peer death, revoked communicator, storage
// failure — returns (Failed, 0, err) with nothing promoted: the previous
// checkpoint remains the valid restart point. Collective.
func (t *Task) ReconfigCheckpoint(prefix string) (Status, int, error) {
	return t.sop(prefix, false)
}

// ReconfigChkEnable is the enabling SOP (drms_reconfig_chkenable): the
// checkpoint is taken only if the system has armed it via
// Handle.EnableCheckpoint. Restores behave exactly as in
// ReconfigCheckpoint. Collective: the decision is made once, by rank 0,
// and rides the generation header every task receives anyway.
func (t *Task) ReconfigChkEnable(prefix string) (Status, int, error) {
	return t.sop(prefix, true)
}

// sop serves a pending restore, else checkpoints (enabling: if armed).
func (t *Task) sop(prefix string, enabling bool) (Status, int, error) {
	if st, delta, served, err := t.servePending(); served {
		return st, delta, err
	}
	if err := t.write(prefix, enabling); err != nil {
		return Failed, 0, err
	}
	return Continued, 0, nil
}

// pieceCodec is the codec policy of this run's checkpoints. The zero
// Codec means the bandwidth model where a chain or the tier is
// configured, and the paper's raw stream in the default configuration.
func (c Config) pieceCodec() ckpt.CodecMode {
	if c.Codec == ckpt.CodecAuto && c.AnchorEvery <= 1 && c.Tier == nil {
		return ckpt.CodecRaw
	}
	return c.Codec
}

// rotation returns the cached rotation view for a prefix (rank 0 only:
// the view assumes a single writer).
func (t *Task) rotation(prefix string) *ckpt.RotationView {
	if t.rots == nil {
		t.rots = map[string]*ckpt.RotationView{}
	}
	v, ok := t.rots[prefix]
	if !ok {
		v = ckpt.NewRotationView(ckpt.Rotation{Base: prefix, Keep: max(t.cfg.Keep, 1), Tier: t.cfg.Tier})
		t.rots[prefix] = v
	}
	return v
}

// genHeader is rank 0's per-SOP decision, broadcast so all tasks write
// the same generation the same way, or all skip the checkpoint.
type genHeader struct {
	Gen    string // the fresh generation prefix
	Prev   string // chain predecessor ("" = none)
	Delta  bool   // write a delta against Prev instead of a full anchor
	Mem    bool   // diskless generation: payloads go to peer memory only
	Stop   bool   // the system's stop request, delivered collectively at this SOP
	Skip   bool   // an enabling SOP nobody armed: no checkpoint (Gen and Prev empty)
	Resize int    // != 0: a resize generation — swap to this task count after commit
}

// walk frames h for the per-SOP broadcast (DESIGN.md §3g): Gen and Prev,
// the flags Delta, Mem, Stop and Skip from the lowest bit up, and Resize.
func (h *genHeader) walk(c *frame.Codec) {
	c.Str(&h.Gen)
	c.Str(&h.Prev)
	c.Flags(&h.Delta, &h.Mem, &h.Stop, &h.Skip)
	frame.Varint(c, &h.Resize)
}

func (h genHeader) encode() []byte { return frame.Encode(h.walk) }

// decodeGenHeader parses encode's frame.
func decodeGenHeader(b []byte) (h genHeader, err error) {
	if err = frame.Decode(b, h.walk); err != nil {
		err = fmt.Errorf("drms: malformed checkpoint header: %w", err)
	}
	return h, err
}

// header is rank 0's decision at an SOP — skip it, or which generation to
// write and how — and the chain predecessor's metadata if the view has it.
func (t *Task) header(prefix string, enabling bool) (hdr genHeader, prevMeta *ckpt.Meta) {
	hdr.Stop = t.handle.stopReq.Load()
	// An enabling SOP checkpoints when the system enabled it, or when a
	// pending system-initiated resize forces it: the swap can only ride a
	// committed generation.
	rs := t.handle.armedResize()
	if enabling && !t.handle.enable.Swap(false) && (rs == nil || rs.finished()) {
		hdr.Skip = true
		return hdr, nil
	}
	view := t.rotation(prefix)
	hdr.Gen = view.NextPrefix(t.cfg.FS)
	if _, prev, ok := view.Latest(t.cfg.FS); ok && !t.cfg.SPMDMode {
		hdr.Prev = prev
		// The base is usually the generation this rank committed
		// last time; the view hands its meta back without a read.
		prevMeta = view.CommittedMeta(prev)
		// Delta unless the anchor interval is due (or unbounded
		// chains would result). The writer re-checks compatibility
		// and silently demotes to an anchor.
		if t.cfg.AnchorEvery > 1 {
			m := prevMeta
			if m == nil {
				if read, err := ckpt.ReadMeta(t.cfg.FS, prev, 0); err == nil {
					m = &read
				}
			}
			if m != nil && m.ChainLen+1 < t.cfg.AnchorEvery {
				hdr.Delta = true
			}
		}
	}
	// Multi-level rotation: with DemoteEvery set, a generation is
	// diskless unless the write-through interval is due. The first
	// generation of a prefix always hits the pfs — a durable fallback
	// must exist before anything is allowed to live only in volatile
	// peer memory.
	if t.cfg.Tier != nil && t.cfg.DemoteEvery > 1 && hdr.Prev != "" &&
		t.memRun[prefix]+1 < t.cfg.DemoteEvery {
		hdr.Mem = true
	}
	// An armed resize rides this generation: commit it, then swap the
	// communicator epoch to the new task count. The hot path prefers
	// peer memory outright — no pfs round trip for a generation whose
	// purpose is an in-memory relayout — but the first generation of a
	// prefix still writes through (a durable fallback must exist
	// before anything lives only in volatile peer memory).
	if rs != nil && !rs.finished() {
		switch {
		case rs.target == t.Tasks():
			rs.complete(restoreOutcome{from: t.Tasks(), to: t.Tasks()}, nil)
		case t.handle.resizeOK && rs.target >= 1:
			hdr.Resize = rs.target
			if t.cfg.Tier != nil && hdr.Prev != "" {
				hdr.Mem = true
			}
		}
	}
	return hdr, prevMeta
}

// write archives the application state under a fresh generation of the
// prefix ("<prefix>.gN"): a committed checkpoint is never overwritten in
// place, so a failure landing mid-checkpoint can only tear the
// uncommitted generation — the previous one stays restorable (the crash
// window of Table 2). Rank 0 picks the generation and broadcasts it (one
// agreed name, no dependence on concurrent file-system scans), and only
// after the new generation's meta commit are older ones pruned. On an
// enabling SOP the same broadcast says whether to write at all.
func (t *Task) write(prefix string, enabling bool) error {
	var hdr genHeader
	var prevMeta *ckpt.Meta
	if t.Rank() == 0 {
		hdr, prevMeta = t.header(prefix, enabling)
	}
	b, err := t.comm.Bcast(0, hdr.encode())
	if err != nil {
		return err
	}
	if hdr, err = decodeGenHeader(b); err != nil {
		return err
	}
	if hdr.Skip {
		t.latchStop(hdr.Stop)
		return nil
	}
	t.sg.Ctx.SOP = prefix
	var st ckpt.Stats
	if t.cfg.SPMDMode {
		st, err = ckpt.WriteSPMD(t.cfg.FS, hdr.Gen, t.comm, t.sg, t.arrays, t.cfg.Stream)
	} else {
		// Fingerprints only where this run can take a delta against them.
		st, err = ckpt.WriteDRMSChained(t.cfg.FS, hdr.Gen, t.comm, t.sg, t.arrays, t.cfg.Stream,
			ckpt.ChainOptions{Prev: hdr.Prev, Delta: hdr.Delta, Codec: t.cfg.pieceCodec(),
				NoDeltaBase: t.cfg.AnchorEvery <= 1, PrevMeta: prevMeta, Tier: t.cfg.Tier,
				Replicas: t.cfg.Replicas, Holders: t.cfg.TierHolders, MemOnly: hdr.Mem})
	}
	if err != nil {
		return err
	}
	if t.Rank() == 0 {
		view := t.rotation(prefix)
		view.NoteCommittedMeta(hdr.Gen, st.Meta)
		view.Prune(t.cfg.FS)
		rtsCheckpoints.Inc()
		rtsPoolTasks.Set(float64(t.Tasks()))
		if t.memRun == nil {
			t.memRun = map[string]int{}
		}
		if hdr.Mem {
			t.memRun[prefix]++
		} else {
			t.memRun[prefix] = 0
		}
	}
	t.handle.noteGeneration(hdr.Gen)
	t.snapshot(hdr.Gen)
	t.latchStop(hdr.Stop)
	if hdr.Resize != 0 {
		// The resize generation is committed (rank 0's return from the
		// write implies the meta commit — and, for a memory-only
		// generation, every peer's published replicas — are durable, the
		// same meta-written-last invariant every checkpoint relies on).
		// Record it for the resize epoch's restore, install the epoch, and
		// unwind every task into Park via the errResize sentinel. A task
		// still in the tail of the write collective when the old transport
		// is retired observes ErrProcFailed instead; the body loop parks it
		// all the same, and its write already contributed its durable
		// bytes.
		rs := t.handle.liveResize(hdr.Resize, hdr.Gen)
		rs.setGen(hdr.Gen)
		if t.Rank() == 0 {
			if _, err := t.handle.runner.Resize(hdr.Resize); err != nil {
				ferr := fmt.Errorf("drms: installing the %d-task resize epoch: %w", hdr.Resize, err)
				rs.complete(restoreOutcome{}, ferr)
				return ferr
			}
		}
		return errResize
	}
	return nil
}

// Start launches the application (drms_initialize + task spawn) and
// returns a control handle immediately.
func Start(cfg Config, app func(*Task) error) (*Handle, error) {
	if cfg.Tasks < 1 {
		return nil, fmt.Errorf("drms: %d tasks", cfg.Tasks)
	}
	if cfg.FS == nil {
		return nil, fmt.Errorf("drms: no file system configured")
	}
	if cfg.RestartFrom != "" {
		// Discard generations torn by the failure being recovered from
		// (meta-less files), then resolve the user-facing prefix to the
		// newest committed generation. Safe here: tasks are not running
		// yet, so no checkpoint is concurrently in progress. A pinned
		// generation ("job.g3") skips the cleanup: the caller chose an
		// exact state, and sibling generations are not ours to touch.
		if _, _, pinned := ckpt.GenOf(cfg.RestartFrom); !pinned {
			ckpt.Rotation{Base: cfg.RestartFrom, Tier: cfg.Tier}.CleanIncomplete(cfg.FS)
		}
		if p, ok := ckpt.Resolve(cfg.FS, cfg.RestartFrom); ok {
			cfg.RestartFrom = p
		}
		// Validate the checkpoint before spawning tasks, like
		// drms_initialize does.
		m, err := ckpt.ReadMeta(cfg.FS, cfg.RestartFrom, 0)
		if err != nil {
			return nil, err
		}
		if cfg.SPMDMode && m.Tasks != cfg.Tasks {
			return nil, fmt.Errorf("drms: SPMD checkpoint %q needs exactly %d tasks", cfg.RestartFrom, m.Tasks)
		}
	}
	runner, err := msg.NewRunner(cfg.Tasks, cfg.TCP)
	if err != nil {
		return nil, err
	}
	h := &Handle{done: make(chan struct{}), runner: runner, lease: cfg.Lease,
		partialOK:      cfg.Partial && !cfg.SPMDMode,
		resizeOK:       !cfg.SPMDMode,
		partialTimeout: cfg.PartialTimeout}
	if len(cfg.TierHolders) > 0 {
		h.holders = append([]int(nil), cfg.TierHolders...)
	}
	if cfg.Fault != nil {
		h.fault = runner.InjectFault(*cfg.Fault)
		if cfg.OnFault != nil {
			h.fault.OnKill(cfg.OnFault)
		}
	}
	body := func(c *msg.Comm) error {
		// Each communicator epoch runs the application from its prologue:
		// epoch 0 is the launch (with the RestartFrom restore, if any);
		// every later epoch is either a localized recovery's replacement
		// epoch or an in-flight resize's, entered by survivors re-parking
		// here and by fresh goroutines for the replaced (or grown) ranks.
		// The park snapshot is the only state carried across epochs — a
		// survivor keeps its memory, a replacement has none, and a resize
		// epoch redistributes from the resize generation instead.
		var snap *parkSnapshot
		for {
			t := &Task{comm: c, cfg: cfg, handle: h, sg: seg.New()}
			switch {
			case c.Epoch() == 0:
				if cfg.RestartFrom != "" {
					t.pending = restoreLaunch
				}
			case c.Resized():
				t.pending = restoreResize
			default:
				t.pending = restoreRollback
				t.snap = snap
			}
			if hh := h.currentHolders(); hh != nil {
				t.cfg.TierHolders = hh
			}
			err := app(t)
			snap = t.snap
			if err == nil {
				return nil
			}
			switch {
			case errors.Is(err, errResize):
				// The resize SOP committed and the new epoch is (being)
				// installed: park into it.
			case errors.Is(err, msg.ErrKilled):
				if !h.partialOK {
					return err
				}
				// The injected victim's process is dead. Exit quietly: in
				// the localized-recovery model, the rank's fate — replace
				// it or restart the run — is the supervisor's call, not an
				// application error.
				return nil
			case errors.Is(err, msg.ErrProcFailed) && runner.Epoch() > c.Epoch():
				// A replacement epoch exists — a Shrink (localized
				// recovery) or Resize installed it before retiring this
				// one — so park into it instead of unwinding. The epoch
				// check keeps a stray ErrProcFailed with no successor
				// epoch from blocking in Park forever.
			default:
				return err
			}
			nc, _, perr := runner.Park(c)
			if perr != nil {
				if errors.Is(perr, msg.ErrSuperseded) {
					// A replacement goroutine owns this rank now (or a
					// shrinking resize retired it); its state is
					// conceptually lost.
					return nil
				}
				return perr // killed, or the run failed for good
			}
			c = nc
		}
	}
	go func() {
		// The runner folds every task's outcome into one root-cause error:
		// the first real failure, with peers' secondary revocation errors
		// subsumed (a task failing revokes the communicator, so the others
		// unwind with msg.ErrRevoked). That single cause is the
		// application's exit status — the input to the restart-at-first-SOP
		// decision. Stored before done closes, so every Wait caller sees it.
		if err := runner.Run(body); err != nil {
			h.exitErr = fmt.Errorf("drms: application died: %w", err)
		}
		close(h.done)
	}()
	return h, nil
}

// Run launches the application and blocks until it finishes.
func Run(cfg Config, app func(*Task) error) error {
	h, err := Start(cfg, app)
	if err != nil {
		return err
	}
	return h.Wait()
}

// WaitAll is a helper for tests and examples that run several
// applications concurrently.
func WaitAll(hs ...*Handle) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(hs))
	for _, h := range hs {
		wg.Add(1)
		go func(h *Handle) {
			defer wg.Done()
			if err := h.Wait(); err != nil {
				errs <- err
			}
		}(h)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}
