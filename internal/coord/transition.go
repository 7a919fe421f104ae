package coord

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"drms/internal/drms"
	"drms/internal/obs"
)

// The application state machine. Every change of an application's
// control-plane state — its status, error, version, incarnation handle,
// pool and the busy claims that go with the pool — is one row of the
// transitions table below, applied by RC.transition and by nothing else
// (TestArchitecture's transition rows). The function runs the same steps
// in the same order for every row: look the rule up, mutate under rc.mu,
// persist (synchronously where the rule says a crash must not forget),
// stamp the rule's metric, announce, release waiters. Persist-then-
// announce is therefore structure, not a convention each call site has
// to remember: a coordinator crash can lose a notification but never
// the truth it announced. DESIGN.md §3e carries the rendered table and
// §3i the list of synchronous rows; a test keeps both in step.

// input names what happened to an application: with the application's
// current status it keys one transition rule.
type input string

const (
	inLaunch           input = "launch"            // RC.Launch: first incarnation of a (re)submitted name
	inExitClean        input = "exit-clean"        // the incarnation returned nil
	inExitError        input = "exit-error"        // the incarnation returned its own error
	inExitFailure      input = "exit-failure"      // the incarnation was revoked or killed (§4 failure)
	inRelaunched       input = "relaunched"        // the supervisor started the next incarnation
	inBudgetExhausted  input = "budget-exhausted"  // the supervisor's retry budget ran out
	inShuttingDown     input = "shutting-down"     // the coordinator closed during a recovery backoff
	inPartialRecovered input = "partial-recovered" // a lost rank was replaced in place
	inResized          input = "resized"           // an in-flight resize swapped the communicator
	inCheckpointArmed  input = "checkpoint-armed"  // CheckpointApp
	inStopRequested    input = "stop-requested"    // StopApp
	inKillRequested    input = "kill-requested"    // KillApp
	inReadopted        input = "readopted"         // RecoverRC: the recorded incarnation survived, lease matched
	inResumed          input = "resumed"           // RecoverRC: the incarnation is gone, the supervisor resumes
	inOrphaned         input = "orphaned"          // RecoverRC: the incarnation is gone and nothing can relaunch it
)

// rule is one row of the transition table.
type rule struct {
	from []AppStatus // statuses the input is legal in ("" = no record under the name)
	in   input
	// supervised restricts the row to an application under a recovery
	// policy on a coordinator that is not closing; rows are matched in
	// order, so the unrestricted row below it is the fallback.
	supervised bool
	next       AppStatus
	event      EventKind // announced after the persist; "" announces nothing
	detail     string    // the event's Detail when the caller supplies none
	// sync rows commit a state snapshot before they announce: what they
	// announce must survive a coordinator crash. The others ring the
	// persister's doorbell.
	sync bool
	// count is bumped per transition; seconds/last take the event's TTR.
	count   *obs.Counter
	seconds *obs.Histogram
	last    *obs.Gauge
	// effect is the control action the row delivers to the incarnation.
	effect func(*drms.Handle)
}

var (
	unlaunched = []AppStatus{"", StatusFinished, StatusTerminated, StatusFailed, StatusStalled}
	running    = []AppStatus{StatusRunning}
	recovering = []AppStatus{StatusRecovering}
	// liveOnRecord is what a restarted coordinator finds in a snapshot
	// for an application that had not settled when it was taken.
	liveOnRecord = []AppStatus{StatusRunning, StatusRecovering}
)

var transitions = []rule{
	{from: unlaunched, in: inLaunch, next: StatusRunning, event: EventAppStarted, sync: true},
	{from: running, in: inExitClean, next: StatusFinished, event: EventAppFinished, sync: true},
	{from: running, in: inExitError, next: StatusFailed, event: EventAppFinished, sync: true},
	{from: running, in: inExitFailure, supervised: true, next: StatusRecovering, event: EventAppKilled,
		detail: "terminated by processor failure; recovery supervisor engaged"},
	{from: running, in: inExitFailure, next: StatusTerminated, event: EventAppKilled, sync: true,
		detail: "terminated by processor failure; restart from checkpoint possible"},
	{from: recovering, in: inRelaunched, next: StatusRunning, event: EventAppRecovered, sync: true,
		count: coordRecoveries, seconds: coordRecoverySeconds, last: coordLastTTR},
	{from: recovering, in: inBudgetExhausted, next: StatusStalled, event: EventAppStalled, sync: true,
		count: coordStalls},
	{from: recovering, in: inShuttingDown, next: StatusTerminated},
	{from: running, in: inPartialRecovered, next: StatusRunning, event: EventAppPartialRecovery, sync: true,
		count: coordPartialRecoveries, seconds: coordPartialRecoverySeconds, last: coordLastPartialTTR},
	{from: running, in: inResized, next: StatusRunning, event: EventAppResized, sync: true,
		count: coordResizes, seconds: coordResizeSeconds, last: coordLastResizeTTR},
	{from: running, in: inCheckpointArmed, next: StatusRunning, effect: (*drms.Handle).EnableCheckpoint},
	{from: running, in: inStopRequested, next: StatusRunning, effect: (*drms.Handle).RequestStop},
	{from: running, in: inKillRequested, next: StatusRunning, effect: (*drms.Handle).Kill},
	{from: liveOnRecord, in: inReadopted, next: StatusRunning, event: EventAppReadopted,
		count: coordReadoptions},
	{from: liveOnRecord, in: inResumed, next: StatusRecovering},
	{from: liveOnRecord, in: inOrphaned, next: StatusTerminated},
}

// settled reports whether a status is terminal: the application's done
// channel is closed and only a fresh launch leaves the status.
func (s AppStatus) settled() bool {
	return s == StatusFinished || s == StatusTerminated || s == StatusFailed || s == StatusStalled
}

// ruleFor looks one (status, input) pair up; nil means the pair is
// illegal.
func ruleFor(cur AppStatus, in input, supervised bool) *rule {
	for i := range transitions {
		r := &transitions[i]
		if r.in == in && (supervised || !r.supervised) && slices.Contains(r.from, cur) {
			return r
		}
	}
	return nil
}

// admitLocked is step 1 of a transition: find the application and the
// rule for the input in its current status. at, when non-nil, is the
// state version the caller decided on (the versioned API): a mismatch is
// rejected with ErrStaleHandle. An illegal pair is an error, never a
// silent write. app is nil for a launch under a new name. rc.mu held.
func (rc *RC) admitLocked(name string, at *uint64, in input) (*appState, *rule, error) {
	app := rc.apps[name]
	if app == nil && in != inLaunch {
		return nil, nil, fmt.Errorf("coord: unknown application %q", name)
	}
	var cur AppStatus
	supervised := false
	if app != nil {
		cur, supervised = app.Status, app.spec.Recovery != nil && !rc.closed
		if at != nil && app.Version != *at {
			coordStaleRejections.Inc()
			return nil, nil, fmt.Errorf("coord: %q at version %d, handle carries %d: %w",
				name, app.Version, *at, ErrStaleHandle)
		}
	}
	r := ruleFor(cur, in, supervised)
	switch {
	case r != nil:
		return app, r, nil
	case cur == StatusRunning:
		return nil, nil, fmt.Errorf("coord: application %q is running: %s is not legal", name, in)
	}
	return nil, nil, fmt.Errorf("coord: %q is %s, %s is not legal: %w", name, cur, in, ErrNotRunning)
}

// transition applies one input to the named application, for callers
// holding no lock. apply runs under rc.mu once the rule is found and
// makes the input's own table changes (the new pool, the error to
// record) and fills the event's payload; for a launch it installs the
// fresh record, and receives the record it replaces (nil for a new
// name). An error from apply aborts the transition: status and version
// stay as they were. The returned snapshot is the application's state
// right after the mutation.
func (rc *RC) transition(name string, at *uint64, in input, apply func(app *appState, ev *Event) error) (AppInfo, error) {
	rc.mu.Lock()
	app, r, err := rc.admitLocked(name, at, in)
	if err != nil {
		rc.mu.Unlock()
		return AppInfo{}, err
	}
	// 2. The mutation, under rc.mu.
	var ev Event
	if apply != nil {
		if err := apply(app, &ev); err != nil {
			rc.mu.Unlock()
			return AppInfo{}, err
		}
		app = rc.apps[name]
	}
	ev.Kind, ev.App = r.event, name
	if ev.Detail == "" {
		ev.Detail = r.detail
	}
	var freed []int
	var unwound chan struct{}
	if app.Status == StatusRunning && r.next != StatusRunning {
		// The incarnation is down: its surviving processors go back to the
		// pool, and whoever waits for the unwind (onTCLost) is released
		// once the change is announced.
		freed, unwound = rc.releasePoolLocked(app), app.unwound
	}
	app.Status = r.next
	app.Version++
	rc.dirtyLocked()
	rc.statsLocked()
	info := appInfoLocked(name, app)
	handle, done := app.handle, app.done
	rc.mu.Unlock()

	if r.effect != nil {
		r.effect(handle)
	}
	// 3. Persist before announcing: once a sync row is on storage, a
	// coordinator crash after the event cannot resurrect a finished
	// application or forget a lease it issued, and a crash before the
	// event loses only the notification — the successor restores the truth.
	if r.sync {
		rc.flushState()
	}
	// 4. The row's metric.
	if r.count != nil {
		r.count.Inc()
	}
	if r.seconds != nil {
		r.seconds.Observe(ev.TTR.Seconds())
		r.last.Set(ev.TTR.Seconds())
	}
	// 5. Announce.
	if r.event != "" {
		rc.emit(ev)
	}
	if len(freed) > 0 {
		rc.emit(Event{Kind: EventNodesFreed, Detail: fmt.Sprintf("%v", freed)})
	}
	// 6. Release waiters, then let the scheduler look at the pool.
	if unwound != nil {
		close(unwound)
	}
	if r.next.settled() {
		close(done)
	}
	rc.changed()
	return info, nil
}

// releasePoolLocked drops a dead incarnation's busy claims and returns
// the processors that are free again. A processor whose TC is gone (the
// failed one) stays out until its TC reconnects: the node must be
// repaired or rebooted first. The pool stays listed on the record — it
// is what the next incarnation's size is picked against. rc.mu held.
func (rc *RC) releasePoolLocked(app *appState) (freed []int) {
	for _, n := range app.Nodes {
		delete(rc.busy, n)
		if tc, ok := rc.tcs[n]; ok && tc.alive {
			freed = append(freed, n)
		}
	}
	return freed
}

// claimLocked reserves processors for an application ahead of a pool
// change that may still fail (a grow, a spare for a lost rank), so a
// concurrent launch cannot take them; unclaimLocked gives back the ones
// it still holds. rc.mu held.
func (rc *RC) claimLocked(name string, nodes []int) {
	for _, n := range nodes {
		rc.busy[n] = name
	}
}

func (rc *RC) unclaimLocked(name string, nodes []int) {
	for _, n := range nodes {
		if rc.busy[n] == name {
			delete(rc.busy, n)
		}
	}
}

// repoolLocked makes nodes the application's pool: processors that left
// it are released, the ones in it are claimed, and the task-count cell
// the per-app gauge reads follows. rc.mu held.
func (rc *RC) repoolLocked(app *appState, nodes []int) {
	var left []int
	for _, n := range app.Nodes {
		if !slices.Contains(nodes, n) {
			left = append(left, n)
		}
	}
	rc.unclaimLocked(app.spec.Name, left)
	rc.claimLocked(app.spec.Name, nodes)
	app.Nodes = nodes
	app.Tasks = len(nodes)
	app.tasksCell.Store(int64(len(nodes)))
}

// bindLocked makes h, running on nodes, the application's current
// incarnation: a fresh launch, or a survivor a restarted coordinator
// re-adopts. rc.mu held.
func (rc *RC) bindLocked(app *appState, h *drms.Handle, nodes []int) {
	app.handle = h
	app.hcell.Store(h)
	app.Lease = h.Lease()
	app.unwound = make(chan struct{})
	rc.repoolLocked(app, nodes)
}

// launchIncarnationLocked starts one incarnation of an application on
// the given nodes, restoring from restartFrom ("" = from scratch), and
// binds it. rc.mu must be held.
func (rc *RC) launchIncarnationLocked(app *appState, nodes []int, restartFrom string) error {
	spec := app.spec
	tasks := len(nodes)
	supervised := spec.Recovery != nil
	keep := spec.Keep
	if supervised && keep < 2 {
		keep = 2 // a corrupt newest generation needs an older fallback
	}
	cfg := drms.Config{Tasks: tasks, FS: rc.fs, Stream: spec.Stream, SPMDMode: spec.SPMD,
		RestartFrom: restartFrom, Keep: keep, Verify: spec.Verify || supervised,
		AnchorEvery: spec.AnchorEvery, Codec: spec.Codec,
		Partial: spec.Partial && supervised && !spec.SPMD}
	if spec.Replicas > 0 && !spec.SPMD {
		// Hot tier: ranks replicate into the pool's node memories, so a
		// replica set spans distinct failure domains and DropStore on a
		// node loss removes exactly what that failure destroyed.
		cfg.Tier = rc.tier
		cfg.Replicas = spec.Replicas
		cfg.TierHolders = append([]int(nil), nodes...)
		cfg.DemoteEvery = spec.DemoteEvery
	}
	var cell atomic.Pointer[drms.Handle]
	if spec.FaultNext != nil {
		if f := spec.FaultNext(app.Incarnation, tasks); f != nil {
			cfg.Fault = f
			// An injected death must be observable the way a processor
			// failure is: run step 2 of the §4 procedure so the whole
			// application unwinds and the watcher takes over. An injected
			// death is a process failure — the node and its memory tier
			// survive, so localized recovery can replace the victim's rank
			// in place on its own node. The handle cell closes the tiny
			// window between the victim's death and Start returning.
			victim := f.Victim
			cfg.OnFault = func() {
				for cell.Load() == nil {
					time.Sleep(50 * time.Microsecond)
				}
				rc.failRank(spec.Name, cell.Load(), victim, -1)
			}
		}
	}
	// Lease the incarnation: the handle is stamped with a unique epoch
	// that the control-plane snapshot records, so a restarted
	// coordinator can prove a surviving handle IS the incarnation it
	// has on file before re-adopting it.
	rc.leaseSeq++
	cfg.Lease = rc.leaseSeq
	h, err := drms.Start(cfg, spec.Body)
	if err != nil {
		rc.leaseSeq--
		return err
	}
	cell.Store(h)
	rc.bindLocked(app, h, nodes)
	return nil
}

// failRank is step 2 of the §4 failure procedure for one lost rank of a
// running incarnation, shared by both failure detectors (a lost TC
// connection, an injected process death). Localized recovery first, when
// the application opted in: replace just the lost rank while survivors
// park in place — the incarnation continues, nothing to kill, nothing to
// unwind, and failRank reports true. Any doubt falls back to the paper's
// procedure: kill all other processes of the application by revoking its
// communicator. Every task's pending and future operation returns
// msg.ErrRevoked, so tasks observe the failure and unwind to a clean
// state within the heartbeat timeout instead of being shot mid-I/O.
// Steps 3-5 then complete in watchApp when the tasks have unwound: the
// application is marked terminated (or handed to the recovery
// supervisor), the user informed, and only then are the surviving
// processors reclaimed.
func (rc *RC) failRank(name string, h *drms.Handle, deadRank, deadNode int) (continues bool) {
	if rc.tryPartialRecovery(name, h, deadRank, deadNode) {
		return true
	}
	h.Kill()
	return false
}
