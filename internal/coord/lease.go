package coord

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"drms/internal/ckpt"
	"drms/internal/drms"
	"drms/internal/pfs"
)

// Coordinator crash and recovery. The control plane eats its own
// dogfood: a crashed RC restarts from its latest verified snapshot
// generation (store.go) the same way the applications it supervises
// restart from theirs — and, critically, it re-adopts work that
// survived the crash instead of killing it. A coordinator death is not
// an application failure: the incarnations keep computing, the TCs keep
// their processors, and only the bookkeeping needs to be rebuilt.
//
// Re-adoption is proved, not assumed, through leases. Every incarnation
// is stamped with a unique lease epoch at launch (drms.Config.Lease),
// recorded in the persisted appRecord; every TC hello carries its
// connection lineage's epoch. A restarted coordinator matches a
// surviving handle's lease against its record before re-adopting: a
// match means this is exactly the incarnation on file; a mismatch (or a
// missing survivor) means the recorded incarnation died with the crash,
// and the supervisor resumes its recovery cycle from the persisted
// budget and attempt counters.

// survivor is one application incarnation that outlived the coordinator.
type survivor struct {
	handle *drms.Handle
	nodes  []int
}

// Remnant captures what survives a coordinator crash in the cluster
// itself: the running incarnations (reachable through their handles —
// in a distributed deployment, through their TC pools) and the
// peer-memory checkpoint tier (node memory does not die with the
// coordinator). Pass it to RecoverRC so the restarted coordinator can
// reconcile its persisted records against reality.
type Remnant struct {
	// Tier is the surviving peer-memory checkpoint tier.
	Tier *ckpt.MemTier

	apps map[string]*survivor
}

// Crash simulates an abrupt coordinator death: listeners and TC
// connections drop, subscriber streams close, and — unlike Close — no
// final state flush happens, so recovery works from whatever the
// persister last committed. It returns the Remnant of cluster state
// that outlives the coordinator process. Running applications are NOT
// killed: a coordinator death is not an application failure.
func (rc *RC) Crash() *Remnant {
	rem := &Remnant{Tier: rc.tier, apps: make(map[string]*survivor)}
	rc.mu.Lock()
	for name, app := range rc.apps {
		// Every incarnation with a live handle survives the coordinator —
		// including one that already exited but whose settle was not yet
		// persisted (the successor re-adopts it and settles it instantly
		// from the handle's recorded exit, instead of misreading the stale
		// "running" record as a lost incarnation and restarting a finished
		// application). Only a recovering app is excluded: its handle is
		// the incarnation that is known dead.
		if app.handle != nil && app.Status != StatusRecovering {
			rem.apps[name] = &survivor{handle: app.handle,
				nodes: append([]int(nil), app.Nodes...)}
		}
	}
	rc.mu.Unlock()
	rc.shutdown(true)
	return rem
}

// RecoveryReport summarizes what RecoverRC reconstructed.
type RecoveryReport struct {
	// Gen is the snapshot generation restored from (-1: none found; the
	// coordinator then starts empty).
	Gen int
	// Quarantined lists snapshot generations moved aside during verified
	// resolution.
	Quarantined []string
	// Readopted are applications whose incarnations survived the crash
	// with matching leases and continue without a restart.
	Readopted []string
	// Resumed are supervised applications whose incarnations died with
	// (or before) the crash; their recovery cycles were resumed from the
	// persisted budget and attempt counters.
	Resumed []string
	// Orphaned are recorded applications that could be neither re-adopted
	// nor relaunched (no surviving incarnation and no catalog entry to
	// re-bind a runnable spec); they settle terminated, state preserved.
	Orphaned []string
}

// RecoverRC restarts a crashed coordinator from its latest verifiable
// control-plane snapshot under opt.StatePrefix, reconciling the
// persisted records against the surviving cluster state in rem (nil:
// nothing survived). Applications whose incarnation survived with a
// matching lease are re-adopted untouched; supervised applications
// whose incarnation did not survive resume their recovery cycle through
// the spec opt.Catalog re-binds; everything else settles with its
// recorded terminal state. The new coordinator listens on a fresh
// address — surviving TCs rejoin via TC.Reconnect.
func RecoverRC(fs *pfs.System, opt RCOptions, rem *Remnant) (*RC, *RecoveryReport, error) {
	if rem == nil {
		rem = &Remnant{}
	}
	rc, report, err := loadRC(fs, opt, rem)
	if err != nil {
		return nil, nil, err
	}
	rc.reconcile(rem, report)
	return rc, report, nil
}

// loadRC is RecoverRC's first half: a coordinator, not yet started,
// whose application table holds the newest verifiable snapshot's records
// as they were written — plus a running record for every survivor the
// snapshot never saw (a crash can land between an incarnation's launch
// and its first flush; its record is synthesized from the handle's own
// lease). Nothing has been decided or announced yet.
func loadRC(fs *pfs.System, opt RCOptions, rem *Remnant) (*RC, *RecoveryReport, error) {
	if opt.StatePrefix == "" {
		return nil, nil, fmt.Errorf("coord: RecoverRC needs RCOptions.StatePrefix")
	}
	if opt.Tier == nil {
		opt.Tier = rem.Tier
	}
	rc, err := newRC(fs, opt)
	if err != nil {
		return nil, nil, err
	}
	report := &RecoveryReport{Gen: -1}

	records, gen, quarantined, ok, lerr := rc.store.Load(fs)
	report.Quarantined = quarantined
	if ok {
		report.Gen = gen
		coordStateRestores.Inc()
	} else if lerr != nil && (len(quarantined) == 0 || errors.Is(lerr, ckpt.ErrLegacyFormat)) {
		// Load trouble that is not just corrupt generations (they
		// quarantine and fall back), or a legacy generation behind them —
		// refuse to start on a store that holds more than it yields.
		rc.ln.Close()
		return nil, nil, lerr
	}
	for key, raw := range records {
		switch {
		case key == rcRecordKey:
			var rec rcRecord
			if err := decodeRecord(raw, &rec); err != nil {
				rc.ln.Close()
				return nil, nil, err
			}
			rc.leaseSeq = rec.LeaseSeq
		case strings.HasPrefix(key, "app/"):
			var rec appRecord
			if err := decodeRecord(raw, &rec); err != nil {
				rc.ln.Close()
				return nil, nil, err
			}
			rc.apps[key[len("app/"):]] = appFromRecord(rec, opt.Catalog)
		}
	}
	for name, sv := range rem.apps {
		if _, known := rc.apps[name]; !known {
			rc.apps[name] = appFromRecord(appRecord{Name: name,
				Status: StatusRunning, Tasks: len(sv.nodes), Lease: sv.handle.Lease()}, opt.Catalog)
			rc.leaseSeq = max(rc.leaseSeq, sv.handle.Lease())
		}
	}
	return rc, report, nil
}

// reconcile is RecoverRC's second half: every application the records
// show running or recovering is re-adopted, resumed or orphaned — one
// transition each, in name order — then the coordinator starts and the
// reconciled tables are committed.
func (rc *RC) reconcile(rem *Remnant, report *RecoveryReport) {
	names := make([]string, 0, len(rc.apps))
	for name := range rc.apps {
		names = append(names, name)
	}
	sort.Strings(names)
	causes := make(map[string]error)
	for _, name := range names {
		app := rc.apps[name]
		if app.Status.settled() {
			continue // terminal on record: preserved as-is
		}
		sv := rem.apps[name]
		switch {
		case sv != nil && sv.handle.Lease() == app.Lease:
			// Lease matched: this is exactly the incarnation on file.
			rc.transition(name, nil, inReadopted, func(app *appState, ev *Event) error {
				app.err = nil
				rc.bindLocked(app, sv.handle, append([]int(nil), sv.nodes...))
				registerAppGauges(name, app)
				*ev = Event{Tasks: app.Tasks, Gen: -1,
					Detail: fmt.Sprintf("lease %d matched; incarnation %d continues on %d tasks",
						app.Lease, app.Incarnation, app.Tasks)}
				if g, ok := sv.handle.CommittedGen(); ok {
					ev.Gen = g
				}
				return nil
			})
			report.Readopted = append(report.Readopted, name)
		case app.spec.Recovery != nil && app.spec.Body != nil:
			// The incarnation died with the crash (or was already down):
			// resume the supervisor's cycle from the persisted counters.
			causes[name] = fmt.Errorf("coord: incarnation lease %d of %q did not survive the coordinator crash",
				app.Lease, name)
			rc.transition(name, nil, inResumed, func(app *appState, _ *Event) error {
				if app.err == nil {
					app.err = causes[name]
				}
				registerAppGauges(name, app)
				return nil
			})
			report.Resumed = append(report.Resumed, name)
		default:
			// Nothing survived and nothing can relaunch it.
			rc.transition(name, nil, inOrphaned, func(app *appState, _ *Event) error {
				if app.err == nil {
					app.err = fmt.Errorf("coord: %q lost its incarnation in a coordinator crash and no catalog entry can relaunch it", name)
				}
				return nil
			})
			report.Orphaned = append(report.Orphaned, name)
		}
	}
	// Watchers start only now: one that settles its application commits a
	// snapshot, and that snapshot must hold the whole reconciled table.
	rc.start()
	for _, name := range report.Readopted {
		go rc.watchApp(rc.apps[name], false, nil)
	}
	for _, name := range report.Resumed {
		go rc.watchApp(rc.apps[name], true, causes[name])
	}
	rc.flushState() // the reconciled state is the new truth
}

// appFromRecord rebuilds an appState from its persisted record,
// re-binding the runnable spec parts through the catalog when it has
// the name. Called before the coordinator's goroutines start, so no
// locking.
func appFromRecord(rec appRecord, catalog func(string) (AppSpec, bool)) *appState {
	spec := AppSpec{Name: rec.Name, Keep: rec.Keep, Verify: rec.Verify,
		AnchorEvery: rec.AnchorEvery, Replicas: rec.Replicas,
		DemoteEvery: rec.DemoteEvery, SPMD: rec.SPMD}
	if rec.Supervised {
		spec.Recovery = &RecoveryPolicy{Budget: rec.PolicyBudget, Backoff: rec.Backoff,
			BackoffMax: rec.BackoffMax, StallPenalty: rec.StallPenalty}
	}
	if catalog != nil {
		if cat, ok := catalog(rec.Name); ok {
			cat.Name = rec.Name
			spec = cat
		}
	}
	if rec.Attempts == 0 {
		if rec.LastResolved == 0 {
			rec.LastResolved = -2 // zero-value/synthesized record: no recovery yet
		}
		if rec.Budget == 0 && spec.Recovery != nil {
			rec.Budget = spec.Recovery.withDefaults().Budget
		}
	}
	app := &appState{appRecord: rec, spec: spec, done: make(chan struct{})}
	if rec.Err != "" {
		app.err = fmt.Errorf("%s", rec.Err)
	}
	if rec.FirstCause != "" {
		app.firstCause = fmt.Errorf("%s", rec.FirstCause)
	}
	app.tasksCell.Store(int64(rec.Tasks))
	if app.Status.settled() {
		close(app.done)
	}
	return app
}
