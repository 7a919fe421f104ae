package coord

import (
	"errors"
	"fmt"
	"time"

	"drms/internal/drms"
)

// The versioned control-plane API. Every application carries a
// monotonically increasing state version that advances on each control-
// plane mutation (launch, status transition, new incarnation, armed
// checkpoint, stop request). Controllers address the application
// through an AppHandle — the application's name plus the version the
// controller last observed — and every mutating operation validates the
// handle against the live version before acting: a stale handle is
// rejected with ErrStaleHandle instead of applying an operation decided
// on outdated state. Successful mutations return the handle at its new
// version, so a controller can chain operations (arm a checkpoint, then
// request a stop) without re-reading, while any concurrent mutation —
// another controller's, or the supervisor's own recovery cycle —
// invalidates the chain at the next call. This is the optimistic
// handle/commit concurrency model of the vic port-layer design, applied
// to the coordinator's tables.

// AppHandle addresses one application at one observed state version.
type AppHandle struct {
	App     string
	Version uint64
}

// ErrStaleHandle is returned by mutating API calls whose handle's
// version no longer matches the application's state: the state advanced
// since the handle was opened. Re-open the application to observe the
// new state and retry if the operation still makes sense.
var ErrStaleHandle = errors.New("coord: stale handle (state version advanced; re-open the application)")

// ErrNotRunning is returned by mutating API calls against an
// application that is not in the running state.
var ErrNotRunning = errors.New("coord: application not running")

// OpenApp opens a versioned handle on the named application, returning
// the handle and the state snapshot it was opened against.
func (rc *RC) OpenApp(name string) (AppHandle, AppInfo, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	app, ok := rc.apps[name]
	if !ok {
		return AppHandle{}, AppInfo{}, fmt.Errorf("coord: unknown application %q", name)
	}
	return AppHandle{App: name, Version: app.Version}, appInfoLocked(name, app), nil
}

// mutate applies one controller-requested input under handle
// validation and returns the handle at the new version (the caller's
// own handle when the input was refused).
func (rc *RC) mutate(h AppHandle, in input) (AppHandle, error) {
	info, err := rc.transition(h.App, &h.Version, in, nil)
	if err != nil {
		return h, err
	}
	return AppHandle{App: h.App, Version: info.Version}, nil
}

// CheckpointApp arms a system-initiated checkpoint at the application's
// next enabling SOP. The mutation advances the state version; the
// returned handle carries it.
func (rc *RC) CheckpointApp(h AppHandle) (AppHandle, error) {
	return rc.mutate(h, inCheckpointArmed)
}

// StopApp asks the application to exit at its next SOP. The mutation
// advances the state version; the returned handle carries it.
func (rc *RC) StopApp(h AppHandle) (AppHandle, error) {
	return rc.mutate(h, inStopRequested)
}

// KillApp terminates the application's current incarnation the way a
// processor failure would (communicator revocation), under handle
// validation. A supervised application then enters its recovery cycle;
// an unsupervised one settles terminated.
func (rc *RC) KillApp(h AppHandle) (AppHandle, error) {
	return rc.mutate(h, inKillRequested)
}

// ResizeApp changes a running application's task count in flight
// (DESIGN.md §3k), under handle validation: the pool delta is claimed
// from (grow) or released to (shrink) the free processors, and the
// application checkpoints to the hot tier, swaps to a communicator of
// the new size, and redistributes — same incarnation, no process
// restart, no recovery-budget burn. Blocks until the application's next
// checkpointing SOP carries the swap. On failure nothing changed: the
// claimed processors are returned and the caller may fall back to the
// classic checkpoint/stop/relaunch reconfigure (JSA.Reconfigure).
func (rc *RC) ResizeApp(h AppHandle, tasks int) (AppHandle, error) {
	rc.mu.Lock()
	app, _, err := rc.admitLocked(h.App, &h.Version, inResized)
	free := rc.availableLocked()
	switch {
	case err != nil:
	case app.spec.SPMD:
		err = fmt.Errorf("coord: %q is SPMD; in-flight resize requires the DRMS scheme", h.App)
	case tasks < 1:
		err = fmt.Errorf("coord: resize of %q to %d tasks", h.App, tasks)
	case tasks == app.Tasks:
		err = fmt.Errorf("coord: %q already runs %d tasks", h.App, tasks)
	case tasks-app.Tasks > len(free):
		err = fmt.Errorf("coord: growing %q to %d tasks needs %d more processors, %d free",
			h.App, tasks, tasks-app.Tasks, len(free))
	}
	if err != nil {
		rc.mu.Unlock()
		return h, err
	}
	before := app.Tasks
	handle := app.handle
	holders := append([]int(nil), app.Nodes...)
	var claimed []int
	if tasks > before {
		claimed = free[:tasks-before]
		rc.claimLocked(h.App, claimed) // provisional: a concurrent launch cannot take them
		holders = append(holders, claimed...)
	} else {
		holders = holders[:tasks]
	}
	rc.mu.Unlock()

	start := time.Now()
	stats, err := handle.Resize(drms.ResizeSpec{Tasks: tasks, Holders: holders})
	var info AppInfo
	if err == nil {
		ttr := time.Since(start)
		info, err = rc.transition(h.App, nil, inResized, func(app *appState, ev *Event) error {
			// The incarnation may have failed while we waited: its watcher
			// owns the bookkeeping of the pool then, and only our
			// provisional claims need undoing.
			if app.handle != handle {
				return fmt.Errorf("coord: application %q failed during resize", h.App)
			}
			rc.repoolLocked(app, holders)
			*ev = Event{FromTasks: before, Tasks: tasks, TTR: ttr,
				Detail: fmt.Sprintf("resized in flight from %d to %d tasks via %s (no restart): %s from peer memory, %s from pfs",
					before, tasks, stats.Gen, fmtBytes(stats.TierMemBytes), fmtBytes(stats.TierPFSBytes))}
			return nil
		})
	}
	if err != nil {
		rc.mu.Lock()
		rc.unclaimLocked(h.App, claimed)
		rc.mu.Unlock()
		coordResizeFallbacks.Inc()
		if len(claimed) > 0 {
			rc.changed()
		}
		return h, fmt.Errorf("coord: in-flight resize of %q: %w", h.App, err)
	}
	return AppHandle{App: h.App, Version: info.Version}, nil
}
