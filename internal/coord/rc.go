// Package coord implements the DRMS controlling infrastructure (§4,
// Fig. 6): the resource coordinator (RC) master daemon, the per-processor
// task coordinators (TCs) that connect to it over TCP, the TC pools
// formed around running applications, and the job scheduler and analyzer
// (JSA) that exploits reconfigurable checkpointing for malleable
// scheduling.
//
// The failure model is exactly the paper's: the basic failure event is a
// processor failure, detected as the loss of the connection between that
// processor's TC and the RC (a missed heartbeat or an abrupt close). The
// RC then (1) determines the application and TC pool involved, (2) kills
// all other processes of that application and the pool's TCs, (3) marks
// the application terminated and informs the user, (4) restarts the
// killed TCs — each reactivated TC returns its processor to the free
// pool — and the failed processor stays out until its TC reconnects. The
// application can immediately be restarted from its latest checkpoint on
// an equal, smaller, or larger pool: restart never waits for the failed
// processor to be repaired.
package coord

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drms/internal/ckpt"
	"drms/internal/drms"
	"drms/internal/msg"
	"drms/internal/obs"
	"drms/internal/pfs"
	"drms/internal/stream"
)

// EventKind classifies RC notifications.
type EventKind string

const (
	EventTCUp        EventKind = "tc-up"
	EventTCDown      EventKind = "tc-down"
	EventTCBye       EventKind = "tc-bye"
	EventAppStarted  EventKind = "app-started"
	EventAppKilled   EventKind = "app-killed"
	EventAppFinished EventKind = "app-finished"
	EventNodesFreed  EventKind = "nodes-freed"
	// Recovery supervisor events: the autonomous restart cycle of a
	// supervised application. app-recovering fires when a failed
	// application enters the restart cycle, app-recovered when a new
	// incarnation is running, ckpt-quarantined when a corrupt generation
	// is moved aside during restart-point resolution, and app-stalled
	// when the retry budget is exhausted — the terminal give-up.
	EventAppRecovering   EventKind = "app-recovering"
	EventAppRecovered    EventKind = "app-recovered"
	EventAppStalled      EventKind = "app-stalled"
	EventCkptQuarantined EventKind = "ckpt-quarantined"
	// EventAppReadopted fires when a restarted coordinator re-adopts a
	// still-running incarnation whose lease matched its persisted record:
	// the application continues without a restart.
	EventAppReadopted EventKind = "app-readopted"
	// EventAppPartialRecovery fires when a localized recovery completes:
	// the failed rank was replaced in place, survivors kept their state
	// and rolled back to the last SOP, and the incarnation continues —
	// no restart, no unwinding. Gen is the generation rolled back to,
	// TTR the failure-to-recovery latency, and Detail the restored-byte
	// accounting by tier.
	EventAppPartialRecovery EventKind = "app-partial-recovery"
	// EventAppResized fires when an in-flight resize completes: the
	// application checkpointed to the hot tier, swapped to a communicator
	// of the new size, and redistributed — same incarnation, no process
	// restart. FromTasks/Tasks are the before/after counts, TTR the
	// request-to-redistributed latency.
	EventAppResized EventKind = "app-resized"
)

// Event is a user-visible notification from the RC (the UIC surface).
// Recovery events carry structured telemetry: the attempt number, the
// pool the new incarnation runs on, the generation it restarted from
// (-1 when restarting from scratch), and — on app-recovered — the time
// from failure to the relaunch.
type Event struct {
	Kind   EventKind
	App    string
	Node   int
	Detail string

	Attempt   int           `json:",omitempty"` // restart attempt number (1-based)
	Tasks     int           `json:",omitempty"` // pool size of the new incarnation
	FromTasks int           `json:",omitempty"` // pool size before an in-flight resize
	Gen       int           `json:",omitempty"` // generation restarted from; -1 = scratch
	TTR       time.Duration `json:",omitempty"` // failure-to-recovery latency
}

// RecoveryPolicy makes an application supervised: after a failure kills
// it, the RC autonomously restarts it from the newest verified
// checkpoint generation on whatever processors survive, under an
// exponential-backoff retry budget. The zero value of each field picks
// a sensible default.
type RecoveryPolicy struct {
	// Budget is the total cost the supervisor may spend on restarts
	// before declaring the application stalled. A normal attempt costs
	// 1; an attempt whose restart point has not advanced since the last
	// one (the livelock signature: crash, restore the same generation,
	// crash again) costs 1+StallPenalty, so a non-converging loop burns
	// the budget faster than honest progress does. Default 5.
	Budget int
	// Backoff is the delay before the first restart attempt; each
	// further attempt doubles it up to BackoffMax, with ±25% jitter so
	// restart storms decorrelate. Defaults 50ms and 2s.
	Backoff    time.Duration
	BackoffMax time.Duration
	// StallPenalty is the extra budget cost of a non-advancing attempt.
	// Default 1.
	StallPenalty int
	// Pool picks the task count for the next incarnation given the free
	// processors and the previous incarnation's size. nil defaults to
	// min(previous, available): hold the pool if possible, shrink onto
	// the survivors otherwise. Growing (e.g. return available) is
	// equally valid — reconfigurable restart does not care.
	Pool func(available, previous int) int
}

func (p RecoveryPolicy) withDefaults() RecoveryPolicy {
	if p.Budget <= 0 {
		p.Budget = 5
	}
	if p.Backoff <= 0 {
		p.Backoff = 50 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 2 * time.Second
	}
	if p.StallPenalty <= 0 {
		p.StallPenalty = 1
	}
	if p.Pool == nil {
		p.Pool = func(available, previous int) int { return min(previous, available) }
	}
	return p
}

// AppSpec describes a reconfigurable application the RC can launch. By
// convention the application checkpoints under the prefix Name, calls
// ReconfigCheckpoint (or ReconfigChkEnable) at its SOP, and honors
// StopRequested after each SOP.
type AppSpec struct {
	Name   string
	Body   func(*drms.Task) error
	Stream stream.Options
	SPMD   bool

	// Recovery, when non-nil, puts the application under the recovery
	// supervisor: failures trigger autonomous reconfigure-and-restart
	// instead of a terminal "terminated" status. Supervised applications
	// keep at least 2 checkpoint generations (fallback depth) and verify
	// checkpoints on the read path during restarts.
	Recovery *RecoveryPolicy
	// Keep is how many committed checkpoint generations the application
	// retains (drms.Config.Keep); supervised applications keep >= 2.
	Keep int
	// Verify forces read-path CRC verification on restore even for
	// unsupervised launches.
	Verify bool
	// AnchorEvery enables chained (delta) checkpointing with the given
	// anchor interval (drms.Config.AnchorEvery).
	AnchorEvery int
	// Codec selects the piece codec for chained checkpoints
	// (drms.Config.Codec).
	Codec ckpt.CodecMode
	// Replicas > 0 enables the hot in-memory checkpoint tier for this
	// application: at commit time each canonical piece is replicated
	// into Replicas peers' memory beyond the writer (k+1 replication),
	// and restores are served from surviving peer memory when possible —
	// the millisecond restart path. Replicas of a piece land on the
	// distinct nodes of the incarnation's pool, so they die exactly with
	// node failures.
	Replicas int
	// DemoteEvery > 1 makes the rotation span tiers: every
	// DemoteEvery-th generation is written through to the pfs, the ones
	// between live only in peer memory (drms.Config.DemoteEvery).
	// Requires Replicas > 0.
	DemoteEvery int
	// Partial enables localized recovery for a supervised application:
	// when one of its processors fails, the RC first tries to replace
	// just the lost rank — survivors park in place at the last SOP and
	// keep their state, a spare processor (or, for an injected process
	// death, the victim's own node) takes the dead rank, and only the
	// replacement's sections are restored from the checkpoint. Any doubt
	// about the plan's safety falls back to the classic kill-and-restart
	// path. Requires Recovery; ignored for SPMD applications.
	Partial bool
	// FaultNext, when non-nil, injects a deterministic fault into each
	// incarnation (the chaos harness): it is asked once per launch, with
	// the incarnation number and pool size, and may return nil for "let
	// this incarnation live". Injected deaths run the same §4 failure
	// procedure as a real processor failure — the RC revokes the
	// communicator and the supervisor restarts the application.
	FaultNext func(incarnation, tasks int) *msg.FaultSpec
	// Scale, when non-nil, puts the application under the autoscaler
	// (scaler.go): a policy loop watches the configured signal and
	// shrinks or expands the application through in-flight resizes,
	// under the autoscaler's fleet-wide processor budget. Requires a
	// non-SPMD application; an Autoscaler must be running on the RC.
	Scale *ScalePolicy
}

// AppStatus is the lifecycle state of an application under the RC.
type AppStatus string

const (
	StatusRunning    AppStatus = "running"
	StatusFinished   AppStatus = "finished"
	StatusTerminated AppStatus = "terminated" // killed by a failure
	StatusFailed     AppStatus = "failed"     // exited with an error
	// Supervised lifecycle: recovering = between a failure and the next
	// incarnation; stalled = the retry budget is exhausted, terminal.
	StatusRecovering AppStatus = "recovering"
	StatusStalled    AppStatus = "stalled"
)

// AppInfo is a snapshot of an application's state. Incarnation counts
// supervised restarts: 0 for the initial launch, +1 per recovery.
// Version is the control-plane state version the snapshot was taken at;
// a handle opened at this version is valid until the next mutation.
type AppInfo struct {
	Name        string
	Status      AppStatus
	Tasks       int
	Nodes       []int
	Err         string
	Incarnation int
	Version     uint64
}

type tcState struct {
	node  int
	conn  net.Conn
	alive bool
	// epoch is the registration's lease epoch: a TC increments it on
	// every (re)connection, so a reconnect after a coordinator restart
	// proves it is the same registration lineage, not a new processor
	// claiming the node id. serveTC enforces it: a hello with a lower
	// epoch than a live registration's is rejected. Zero when the TC
	// predates lease epochs.
	epoch int64
}

type appState struct {
	// appRecord is the application's persisted state, held here and
	// nowhere else: status, pool (Tasks, Nodes), incarnation, the state
	// Version the versioned API validates against (api.go), the Lease
	// stamped into the incarnation's handle and matched at re-adoption,
	// and the supervisor's Budget, Attempts and LastResolved (the
	// generation the last recovery restarted from: -1 scratch, -2 no
	// recovery yet; an attempt that cannot beat it burns extra budget).
	// Its Err, FirstCause and spec knobs are filled in by snapshotLocked.
	appRecord

	spec   AppSpec
	handle *drms.Handle
	err    error
	done   chan struct{} // closed when the app reaches a terminal state
	// unwound belongs to the current incarnation: it closes when that
	// incarnation's tasks have fully unwound and its surviving processors
	// are back in the pool — the point onTCLost waits for (a supervised
	// app's done channel may not close for many incarnations).
	unwound chan struct{}
	// firstCause is the root cause of the first failure, kept for Stalled.
	firstCause error

	// hcell hands the current incarnation's handle to the per-app
	// last-restore-source gauge without taking rc.mu on the metrics
	// render path; tasksCell does the same for the per-app task-count
	// gauge, which must follow in-flight resizes (no incarnation bump
	// re-registers anything, so the cell is re-stamped at every task-
	// count mutation).
	hcell     atomic.Pointer[drms.Handle]
	tasksCell atomic.Int64
}

// RC is the resource coordinator: one shard of the control plane. Its
// authoritative tables (applications, incarnations, recovery budgets,
// leases) are mutated only by the transition function (transition.go)
// and — when RCOptions.StatePrefix is set — persisted through the repo's own
// checkpoint machinery (store.go), so a crashed coordinator restarts
// from its latest verified snapshot generation and re-adopts still-live
// work (lease.go) instead of killing it.
type RC struct {
	fs        *pfs.System
	ln        net.Listener
	hbTimeout time.Duration
	opt       RCOptions
	stop      chan struct{} // closed by Close/Crash; aborts recovery backoffs
	// tier is the cluster's hot in-memory checkpoint tier, modeling the
	// per-node memory the TC daemons would hold replicas in. It outlives
	// application incarnations (a process death does not erase peer
	// memory) but a node's store dies with its TC registration
	// (DropStore on connection loss or goodbye).
	tier *ckpt.MemTier

	subMu      sync.Mutex
	subs       []*eventSub
	subsClosed bool // set by shutdown before subs close: late Subscribe gets a dead sub, not a leak

	// Control-plane persistence (nil store = self-checkpointing off).
	// flushMu serializes snapshot+commit pairs end-to-end (store.go):
	// the store numbers generations at commit time, so snapshot order
	// must equal commit order. Never acquired with rc.mu held.
	store       *ckpt.StateStore
	flushMu     sync.Mutex
	persistWake chan struct{}
	persistDone chan struct{}
	lastSnap    atomic.Int64 // unixnano of the last committed snapshot

	// Per-shard gauges, registered once at construction (nil when the
	// coordinator is not part of a sharded fleet).
	shardTCsLive, shardApps *obs.Gauge

	mu       sync.Mutex
	tcs      map[int]*tcState
	apps     map[string]*appState
	busy     map[int]string // node -> app name
	notify   []func()
	leaseSeq int64 // incarnation lease allocator; persisted
	dirty    bool  // control-plane state changed since the last snapshot
	closed   bool
	crashed  bool // shutdown was a simulated crash: skip the final flush
}

// RCOptions configures one resource coordinator.
type RCOptions struct {
	// HBTimeout is how long a silent TC connection is tolerated before
	// the processor is declared failed.
	HBTimeout time.Duration
	// StatePrefix, when non-empty, turns on control-plane
	// self-checkpointing: the coordinator's authoritative tables are
	// persisted under this prefix through ckpt.StateStore (rotated,
	// CRC-verified, self-contained generations) on every mutation, and
	// RecoverRC restarts from the newest verifiable generation.
	StatePrefix string
	// Shard / Shards place this coordinator in a sharded fleet: it owns
	// the applications the shard map assigns to Shard of Shards (shard.go).
	// Shards <= 1 means a solo coordinator that owns everything.
	Shard, Shards int
	// Tier supplies the cluster's surviving peer-memory tier on restart
	// (RecoverRC); nil creates a fresh one.
	Tier *ckpt.MemTier
	// Catalog maps application names back to runnable specs after a
	// coordinator restart: a recorded application whose incarnation did
	// not survive the crash is relaunched from the spec the catalog
	// returns. nil (or a miss) settles such applications as terminated —
	// their state is preserved, but nothing can run them.
	Catalog func(name string) (AppSpec, bool)
}

// NewRCOpts starts a resource coordinator listening on loopback.
func NewRCOpts(fs *pfs.System, opt RCOptions) (*RC, error) {
	rc, err := newRC(fs, opt)
	if err != nil {
		return nil, err
	}
	rc.start()
	return rc, nil
}

// newRC builds a coordinator without starting its goroutines, so
// RecoverRC can restore state into it first.
func newRC(fs *pfs.System, opt RCOptions) (*RC, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tier := opt.Tier
	if tier == nil {
		tier = ckpt.NewMemTier()
	}
	rc := &RC{
		fs:        fs,
		ln:        ln,
		hbTimeout: opt.HBTimeout,
		opt:       opt,
		stop:      make(chan struct{}),
		tier:      tier,
		tcs:       make(map[int]*tcState),
		apps:      make(map[string]*appState),
		busy:      make(map[int]string),
	}
	if opt.StatePrefix != "" {
		rc.store = &ckpt.StateStore{Base: opt.StatePrefix}
		rc.persistWake = make(chan struct{}, 1)
		rc.persistDone = make(chan struct{})
		registerSnapshotAgeGauge(rc)
	}
	if opt.Shards > 1 {
		rc.shardTCsLive, rc.shardApps = shardGauges(opt.Shard)
	}
	return rc, nil
}

// start launches the coordinator's service goroutines.
func (rc *RC) start() {
	go rc.acceptLoop()
	if rc.store != nil {
		go rc.persister()
	}
}

// Addr returns the RC's listen address for TCs to dial.
func (rc *RC) Addr() string { return rc.ln.Addr().String() }

// OnChange registers a callback invoked (without locks held) whenever
// processors become available; the JSA uses it to dispatch queued jobs.
func (rc *RC) OnChange(f func()) {
	rc.mu.Lock()
	rc.notify = append(rc.notify, f)
	rc.mu.Unlock()
}

// Close shuts the RC down cleanly. In-flight recoveries abort: their
// applications settle as terminated. With self-checkpointing on, the
// final state is flushed to storage before Close returns.
func (rc *RC) Close() { rc.shutdown(false) }

// shutdown is the shared teardown. crash=true simulates an abrupt
// coordinator death (RC.Crash): no final state flush, so recovery must
// work from whatever the persister last committed.
func (rc *RC) shutdown(crash bool) {
	rc.mu.Lock()
	if !rc.closed {
		rc.crashed = crash
		close(rc.stop)
	}
	rc.closed = true
	conns := make([]net.Conn, 0, len(rc.tcs))
	for _, tc := range rc.tcs {
		if tc.conn != nil {
			conns = append(conns, tc.conn)
		}
	}
	rc.mu.Unlock()
	rc.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	rc.subMu.Lock()
	rc.subsClosed = true
	subs := append([]*eventSub(nil), rc.subs...)
	rc.subMu.Unlock()
	for _, s := range subs {
		s.close()
	}
	if rc.persistDone != nil {
		<-rc.persistDone // persister exits (final flush unless crashing)
	}
}

// Closed reports whether Close has been called (the daemon's liveness
// probe).
func (rc *RC) Closed() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.closed
}

func (rc *RC) changed() {
	rc.mu.Lock()
	fns := append([]func(){}, rc.notify...)
	rc.mu.Unlock()
	for _, f := range fns {
		f()
	}
}

// tcMsg is the TC→RC wire message (JSON lines). Epoch is the lease
// epoch of a hello: incremented by the TC on every (re)connection, it
// lets a restarted coordinator tell a reconnecting survivor from a new
// claimant of the node id (lease reconciliation). Absent (0) from TCs
// that predate lease epochs.
type tcMsg struct {
	Kind  string `json:"kind"` // "hello", "hb", "bye"
	Node  int    `json:"node"`
	Epoch int64  `json:"epoch,omitempty"`
}

func (rc *RC) acceptLoop() {
	for {
		conn, err := rc.ln.Accept()
		if err != nil {
			return
		}
		go rc.serveTC(conn)
	}
}

// serveTC handles one TC connection for its lifetime.
func (rc *RC) serveTC(conn net.Conn) {
	r := newLineScanner(conn)
	// Registration gets a grace period independent of the (tight) liveness
	// deadline: a TC dialing into a loaded system may need longer than one
	// heartbeat interval to get its hello out, and dropping it here would
	// silently keep a repaired processor out of the pool.
	conn.SetReadDeadline(time.Now().Add(max(10*rc.hbTimeout, time.Second)))
	if !r.Scan() {
		conn.Close()
		return
	}
	var hello tcMsg
	if err := json.Unmarshal(r.Bytes(), &hello); err != nil || hello.Kind != "hello" {
		conn.Close()
		return
	}
	node := hello.Node

	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		conn.Close()
		return
	}
	// Lease-epoch reconciliation: a TC lineage bumps its epoch on every
	// (re)connection, so a reconnecting survivor always presents a higher
	// epoch than any competing claimant of its node id. A hello whose
	// epoch is BELOW a live registration's is stale — a new claimant
	// racing a surviving TC, or a delayed duplicate of an older lineage —
	// and is rejected so it cannot clobber the survivor's slot. Equal
	// epochs supersede (the pre-epoch behavior: epoch-less TCs, and fresh
	// claimants of a slot whose lineage never reconnected). A dead
	// registration guards nothing — its node id is free to claim anew.
	old := rc.tcs[node]
	if old != nil && old.alive && hello.Epoch < old.epoch {
		coordEpochRejections.Inc()
		rc.mu.Unlock()
		conn.Close()
		return
	}
	// Same-node re-registration supersedes the old TC: close its
	// connection now so the old conn and its serveTC goroutine are
	// released immediately instead of leaking until the heartbeat
	// timeout. The old goroutine's loss notice is a no-op — onTCLost
	// acts only while its registration still owns the node's slot.
	st := &tcState{node: node, conn: conn, alive: true, epoch: hello.Epoch}
	rc.tcs[node] = st
	rc.statsLocked()
	rc.mu.Unlock()
	if old != nil && old.conn != nil && old.conn != conn {
		old.conn.Close()
	}
	rc.emit(Event{Kind: EventTCUp, Node: node})
	rc.changed()

	for {
		conn.SetReadDeadline(time.Now().Add(rc.hbTimeout))
		if !r.Scan() {
			// EOF or heartbeat timeout: the processor failed.
			rc.onTCLost(st, "connection lost")
			conn.Close()
			return
		}
		var m tcMsg
		if err := json.Unmarshal(r.Bytes(), &m); err != nil {
			rc.onTCLost(st, "protocol error")
			conn.Close()
			return
		}
		switch m.Kind {
		case "hb":
			// heartbeat: deadline already refreshed
		case "bye":
			// Graceful deregistration: not a failure — but the node's
			// memory leaves with it, so its tier store goes too.
			rc.mu.Lock()
			if rc.tcs[node] == st {
				delete(rc.tcs, node)
			}
			rc.statsLocked()
			rc.mu.Unlock()
			rc.tier.DropStore(node)
			rc.emit(Event{Kind: EventTCBye, Node: node})
			conn.Close()
			return
		}
	}
}

// onTCLost runs the paper's five-step failure procedure for one lost TC
// registration. Failure detection is per-connection: a loss notice is
// acted on only while its registration still owns the node's slot. If
// the node has since re-registered a fresh TC (repaired processors
// rejoin exactly this way during autonomous recovery), the stale loss
// must not clobber the new registration's liveness — the blip it
// reports was already handled, or superseded, when the new TC said
// hello.
func (rc *RC) onTCLost(st *tcState, why string) {
	node := st.node
	rc.mu.Lock()
	if rc.closed || rc.tcs[node] != st {
		rc.mu.Unlock()
		return
	}
	st.alive = false
	coordTCFailures.Inc()
	rc.statsLocked()
	// The failed node's memory is gone: every checkpoint replica it held
	// dies with it. Payloads whose other replicas survive stay hot.
	rc.tier.DropStore(node)
	// Step 1: which application and TC pool is involved?
	appName := rc.busy[node]
	var handle *drms.Handle
	var unwound chan struct{}
	if app := rc.apps[appName]; app != nil && app.Status == StatusRunning {
		handle, unwound = app.handle, app.unwound
	}
	rc.mu.Unlock()

	rc.emit(Event{Kind: EventTCDown, Node: node, Detail: why})

	// Step 2 (failRank). When it had to kill, wait for the incarnation's
	// unwind, not the app's terminal settle: a supervised app may live
	// through many more incarnations before its done channel ever closes.
	if handle != nil && !rc.failRank(appName, handle, -1, node) {
		<-unwound
	}
	rc.changed()
}

// tryPartialRecovery attempts localized recovery for one failed rank of
// a running application (DESIGN.md §3j): pin the roll-back generation,
// pick the replacement — a free spare processor for a node loss
// (deadNode >= 0, deadRank inferred from its pool slot), or the victim's
// own surviving node for an injected process death (deadRank >= 0,
// deadNode < 0) — and drive Handle.PartialRecover, which shrinks the
// communicator and runs the rollback collective. Returns true when the
// incarnation continues with the rank replaced; false means the caller
// must take the classic kill-and-restart path. h guards against stale
// callers: it must still be the app's current incarnation.
func (rc *RC) tryPartialRecovery(appName string, h *drms.Handle, deadRank, deadNode int) bool {
	rc.mu.Lock()
	app := rc.apps[appName]
	if app == nil || app.Status != StatusRunning || app.handle != h ||
		!app.spec.Partial || app.spec.Recovery == nil || app.spec.SPMD || rc.closed {
		rc.mu.Unlock()
		return false
	}
	if deadRank < 0 {
		deadRank = slices.Index(app.Nodes, deadNode)
	}
	if deadRank < 0 || deadRank >= len(app.Nodes) {
		rc.mu.Unlock()
		return false
	}
	gen, ok := h.CommittedGen()
	if !ok {
		rc.mu.Unlock()
		return false // nothing committed: nothing to roll back to
	}
	// The replacement pool: for a node loss, a free spare takes the dead
	// node's slot (claimed provisionally so a concurrent launch cannot);
	// an injected process death keeps the pool — the victim's node and
	// its memory survive.
	holders := append([]int(nil), app.Nodes...)
	var spare []int
	if deadNode >= 0 {
		free := rc.availableLocked()
		if len(free) == 0 {
			rc.mu.Unlock()
			coordPartialFallbacks.Inc()
			rc.emit(Event{Kind: EventAppRecovering, App: appName,
				Detail: "partial recovery not possible: no spare processor; falling back to full restart"})
			return false
		}
		spare = free[:1]
		rc.claimLocked(appName, spare)
		holders[deadRank] = spare[0]
	}
	rc.mu.Unlock()

	from := fmt.Sprintf("%s.g%d", app.spec.Name, gen)
	start := time.Now()
	stats, err := h.PartialRecover(drms.PartialRecoverSpec{
		Dead: []int{deadRank}, From: from, Holders: holders})
	if err == nil {
		ttr := time.Since(start)
		_, err = rc.transition(appName, nil, inPartialRecovered, func(app *appState, ev *Event) error {
			if app.handle != h {
				return fmt.Errorf("incarnation ended during the rollback")
			}
			rc.repoolLocked(app, holders) // the lost node rejoins the pool on TC reconnect
			*ev = Event{Node: deadNode, Tasks: app.Tasks, Gen: gen, TTR: ttr,
				Detail: fmt.Sprintf("rank %d replaced (node %d -> %d); survivors parked, rolled back to %s; restored ranks %v: %s from peer memory, %s from pfs",
					deadRank, deadNode, holders[deadRank], from, stats.Ranks,
					fmtBytes(stats.TierMemBytes), fmtBytes(stats.TierPFSBytes))}
			return nil
		})
	}
	if err != nil {
		rc.mu.Lock()
		rc.unclaimLocked(appName, spare)
		rc.mu.Unlock()
		coordPartialFallbacks.Inc()
		rc.emit(Event{Kind: EventAppRecovering, App: appName, Gen: gen,
			Detail: fmt.Sprintf("partial recovery failed (%v); falling back to full restart", err)})
		return false
	}
	return true
}

// fmtBytes renders a byte count at a human scale for event detail.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// AvailableNodes returns the processors with a live TC and no application.
func (rc *RC) AvailableNodes() []int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.availableLocked()
}

func (rc *RC) availableLocked() []int {
	var out []int
	for n, tc := range rc.tcs {
		if tc.alive && rc.busy[n] == "" {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// Launch starts an application on `tasks` free processors. With restart
// true the application restores from its latest checkpoint (prefix =
// spec.Name); reconfigurable applications may restart with any task
// count. A spec with a RecoveryPolicy launches supervised: later
// failures restart it autonomously instead of settling "terminated".
// Relaunching a settled name replaces its record; the state version
// carries on from the old one, so a handle opened on the settled
// application can never match the new one.
func (rc *RC) Launch(spec AppSpec, tasks int, restart bool) error {
	restartFrom := ""
	if restart {
		restartFrom = spec.Name
	}
	var app *appState
	_, err := rc.transition(spec.Name, nil, inLaunch, func(old *appState, ev *Event) error {
		free := rc.availableLocked()
		if len(free) < tasks {
			return fmt.Errorf("coord: %d processors requested, %d available", tasks, len(free))
		}
		rec := appRecord{LastResolved: -2}
		if old != nil {
			rec.Version = old.Version
		}
		if spec.Recovery != nil {
			rec.Budget = spec.Recovery.withDefaults().Budget
		}
		app = &appState{appRecord: rec, spec: spec, done: make(chan struct{})}
		if err := rc.launchIncarnationLocked(app, free[:tasks], restartFrom); err != nil {
			return err
		}
		rc.apps[spec.Name] = app
		registerAppGauges(spec.Name, app)
		ev.Detail = fmt.Sprintf("%d tasks on %v (restart=%v)", tasks, app.Nodes, restart)
		return nil
	})
	if err != nil {
		return err
	}
	go rc.watchApp(app, false, nil)
	return nil
}

// watchApp drives an application to its terminal state. For a plain
// application that is one Wait; for a supervised one it is the recovery
// loop: each failed incarnation is unwound, its survivors reclaimed,
// and — budget permitting — a new incarnation launched from the newest
// verified checkpoint generation. recovering enters the loop at the
// recovery cycle, for cause: how a restarted coordinator resumes an
// application whose incarnation died with (or before) its predecessor.
func (rc *RC) watchApp(app *appState, recovering bool, cause error) {
	for {
		if recovering && !rc.recoverApp(app, cause) {
			return
		}
		err := app.handle.Wait()
		// A failure event (processor loss, injected fault) shows up as a
		// revoked/killed unwind; an application returning its own error
		// is a logic failure and never recovered from.
		in := inExitClean
		switch {
		case app.handle.Killed() || errors.Is(err, msg.ErrKilled) || errors.Is(err, msg.ErrRevoked):
			in = inExitFailure
		case err != nil:
			in = inExitError
		}
		info, terr := rc.transition(app.spec.Name, nil, in, func(app *appState, ev *Event) error {
			app.err = err
			if app.firstCause == nil {
				app.firstCause = err
			}
			if in == inExitError {
				ev.Detail = err.Error()
			}
			return nil
		})
		if terr != nil || info.Status != StatusRecovering {
			return
		}
		recovering, cause = true, err
	}
}

// errBudget aborts a relaunch whose attempt the budget cannot pay for.
var errBudget = errors.New("coord: recovery budget exhausted")

// recoverApp runs the restart cycle for one failure of a supervised
// application: resolve the newest verified generation (quarantining
// corrupt ones), pick the next pool per policy, back off, and relaunch —
// repeating on placement or launch trouble until the budget runs out.
// Returns true when a new incarnation is running; false when the
// application settled terminally (stalled, or the RC closed).
func (rc *RC) recoverApp(app *appState, cause error) bool {
	name := app.spec.Name
	policy := app.spec.Recovery.withDefaults()
	failedAt := time.Now()
	rc.emit(Event{Kind: EventAppRecovering, App: name,
		Attempt: app.Attempts + 1, Detail: fmt.Sprintf("cause: %v", cause)})

	backoff := policy.Backoff
	for {
		// Back off before every attempt (with jitter); give up promptly
		// if the RC shuts down mid-recovery.
		t := time.NewTimer(jitter(backoff))
		select {
		case <-rc.stop:
			t.Stop()
			rc.transition(name, nil, inShuttingDown, func(app *appState, _ *Event) error {
				app.err = cause
				return nil
			})
			return false
		case <-t.C:
		}
		backoff = min(backoff*2, policy.BackoffMax)

		// The dead incarnation may have been killed mid-checkpoint: sweep
		// its torn (meta-less) generation first. Safe here — the
		// incarnation has fully unwound, so no checkpoint is in flight.
		ckpt.Rotation{Base: name, Tier: rc.tier}.CleanIncomplete(rc.fs)

		// Restart point: the newest generation that passes a full
		// integrity check — tier-aware: a memory-only generation resolves
		// from surviving peers' replica sets, so the common case after a
		// single node loss is a millisecond peer-memory restore of the
		// newest generation. Corrupt or replica-less generations are
		// quarantined (renamed under ".bad", their numbers burned, stale
		// replicas dropped) and the next older one is tried — falling back
		// to the pfs when fewer than one replica of some piece survived.
		// No verifiable checkpoint at all means restarting from scratch —
		// all progress to date is lost but the run continues.
		chosen, quarantined, ok, verr := ckpt.ResolveVerifiedTier(rc.fs, rc.tier, name)
		for _, q := range quarantined {
			d := "failed integrity check; moved aside"
			if verr != nil {
				d = verr.Error()
			}
			rc.emit(Event{Kind: EventCkptQuarantined, App: name, Detail: d + ": " + q})
		}
		restartFrom, gen := "", -1
		if ok {
			restartFrom = chosen
			if _, g, isGen := ckpt.GenOf(chosen); isGen {
				gen = g
			}
		}

		_, err := rc.transition(name, nil, inRelaunched, func(app *appState, ev *Event) error {
			if verr != nil && app.firstCause == nil {
				app.firstCause = verr
			}
			// Budget: a normal attempt costs 1. An attempt that cannot beat
			// the last recovery's restart point — same generation again, or
			// worse after a quarantine — is livelock-shaped (§4 restarts are
			// only useful when checkpoints advance between failures) and
			// costs extra, so a crash loop stalls out well before a slowly
			// progressing application would. The charge stands whether or
			// not the launch below succeeds.
			cost := 1
			if app.LastResolved != -2 && gen <= app.LastResolved {
				cost += policy.StallPenalty
			}
			if app.Budget < cost {
				return errBudget
			}
			app.Budget -= cost
			app.Attempts++
			app.LastResolved = gen
			rc.dirtyLocked()
			coordRecoveryAttempts.Inc()

			// Pool: reconfigure onto whatever the policy picks from the
			// survivors — equal, smaller, or larger than the last pool.
			avail := rc.availableLocked()
			want := policy.Pool(len(avail), app.Tasks)
			if want < 1 || want > len(avail) {
				return fmt.Errorf("coord: no viable pool for %q (%d available, policy wants %d)",
					name, len(avail), want)
			}
			app.Incarnation++
			if err := rc.launchIncarnationLocked(app, avail[:want], restartFrom); err != nil {
				app.Incarnation--
				return err
			}
			app.err = nil
			// TTR, the generation restarted from: the recovery telemetry the
			// paper's Tables 3-5 measure.
			*ev = Event{Attempt: app.Attempts, Tasks: want, Gen: gen, TTR: time.Since(failedAt),
				Detail: fmt.Sprintf("incarnation %d on %d tasks from %s", app.Incarnation, want, cmp.Or(restartFrom, "scratch"))}
			return nil
		})
		switch {
		case err == errBudget:
			rc.transition(name, nil, inBudgetExhausted, func(app *appState, ev *Event) error {
				firstCause := app.firstCause
				if firstCause == nil {
					firstCause = cause
				}
				app.err = fmt.Errorf("coord: recovery budget exhausted after %d restarts of %q (last restart point: gen %d): %w",
					app.Attempts, name, app.LastResolved, firstCause)
				*ev = Event{Attempt: app.Attempts, Gen: gen, Detail: app.err.Error()}
				return nil
			})
			return false
		case err != nil:
			cause = err
			continue
		}
		// How stale the restart point was at relaunch time: the work-lost
		// bound.
		coordRestartGen.Set(float64(gen))
		if commit := ckpt.LastCommitTime(); !commit.IsZero() && gen >= 0 {
			coordRestartGenAge.Set(time.Since(commit).Seconds())
		}
		return true
	}
}

// jitter spreads a backoff ±25% so simultaneous recoveries decorrelate.
func jitter(d time.Duration) time.Duration {
	return d + time.Duration((rand.Float64()-0.5)*0.5*float64(d))
}

// App returns a snapshot of the named application.
func (rc *RC) App(name string) (AppInfo, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	app, ok := rc.apps[name]
	if !ok {
		return AppInfo{}, false
	}
	info := appInfoLocked(name, app)
	return info, true
}

// appInfoLocked renders one application's snapshot; rc.mu must be held.
func appInfoLocked(name string, app *appState) AppInfo {
	info := AppInfo{Name: name, Status: app.Status, Tasks: app.Tasks,
		Nodes: append([]int(nil), app.Nodes...), Incarnation: app.Incarnation,
		Version: app.Version}
	if app.err != nil {
		info.Err = app.err.Error()
	}
	return info
}

// WaitApp blocks until the named application settles and returns its
// final status.
func (rc *RC) WaitApp(name string) (AppStatus, error) {
	status, _, err := rc.waitApp(name, nil)
	return status, err
}

// WaitAppSettled blocks until the named application settles or the
// timeout passes, whichever is first. settled=false with a nil error
// means the application was still running when the timeout expired.
func (rc *RC) WaitAppSettled(name string, timeout time.Duration) (status AppStatus, settled bool, err error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	return rc.waitApp(name, t.C)
}

// waitApp parks on the application's done channel until it closes or
// expire fires (nil: never) — event-driven, no polling.
func (rc *RC) waitApp(name string, expire <-chan time.Time) (status AppStatus, settled bool, err error) {
	rc.mu.Lock()
	app, ok := rc.apps[name]
	rc.mu.Unlock()
	if !ok {
		return "", false, fmt.Errorf("coord: unknown application %q", name)
	}
	select {
	case <-app.done:
		settled = true
	case <-expire:
		// Not settled: report the state as it stands — a supervised app
		// may be "running" again under a new incarnation, or mid-recovery.
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if settled {
		err = app.err
	}
	return app.Status, settled, err
}
