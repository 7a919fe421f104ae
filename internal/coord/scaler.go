// The autoscaler: elasticity policy on top of the in-flight resize
// (DESIGN.md §3k). A policy loop watches observability signals — a named
// metric from the obs registry, or the built-in pool-pressure policy —
// and shrinks or expands scale-managed applications through
// RC.ResizeApp, under one fleet-wide processor budget. Every decision
// goes through the versioned API, so a concurrent controller mutation
// (a recovery, another resize, a stop) invalidates the decision instead
// of racing it.
package coord

import (
	"time"

	"drms/internal/obs"
)

// ScalePolicy is one application's elasticity policy (AppSpec.Scale).
// The zero value of each field picks a sensible default.
type ScalePolicy struct {
	// Min and Max bound the task count the autoscaler may pick.
	// Defaults: Min 1; Max = launch size when left 0 (which disables
	// growing past the launch pool unless set explicitly).
	Min, Max int
	// Interval is how often the policy is evaluated (default 100ms).
	Interval time.Duration
	// Step is how many tasks one decision adds or removes (default 1).
	Step int
	// Signal, when non-empty, names a metric in the obs registry
	// (obs.Default.Value): the policy grows by Step while the value is
	// >= GrowAbove and shrinks by Step while it is <= ShrinkBelow. A
	// zero threshold disables that edge. When Signal is empty the
	// built-in pool-pressure policy runs: expand into free processors,
	// contract by Step when the pool is exhausted and jobs are queued —
	// elasticity that gives capacity back under contention.
	Signal      string
	GrowAbove   float64
	ShrinkBelow float64
}

func (p ScalePolicy) withDefaults() ScalePolicy {
	if p.Min < 1 {
		p.Min = 1
	}
	if p.Interval <= 0 {
		p.Interval = 100 * time.Millisecond
	}
	if p.Step < 1 {
		p.Step = 1
	}
	return p
}

// Autoscaler drives the scale policies of one coordinator's
// applications. One loop serves every scale-managed application; its
// decisions serialize, so the fleet-wide budget is enforced without a
// check-then-act window between two growing applications.
type Autoscaler struct {
	rc *RC
	// queued reports the scheduler's queue depth for the pool-pressure
	// policy (nil = always 0).
	queued func() int
	// budget caps the processors all scale-managed applications may hold
	// in total (0 = uncapped). Grow decisions that would exceed it are
	// denied and counted.
	budget int

	stop chan struct{}
	done chan struct{}
	last map[string]time.Time // per-app time of the last evaluation
}

// NewAutoscaler starts the policy loop. jsa may be nil (the
// pool-pressure policy then never sees queue contention); budget 0
// means no fleet-wide cap. Close stops the loop.
func NewAutoscaler(rc *RC, jsa *JSA, budget int) *Autoscaler {
	a := &Autoscaler{rc: rc, budget: budget,
		stop: make(chan struct{}), done: make(chan struct{}),
		last: make(map[string]time.Time)}
	if jsa != nil {
		a.queued = jsa.Queued
	}
	go a.loop()
	return a
}

// Close stops the policy loop and waits for it to exit.
func (a *Autoscaler) Close() {
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	<-a.done
}

func (a *Autoscaler) loop() {
	defer close(a.done)
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-a.rc.stop:
			return
		case now := <-t.C:
			a.tick(now)
		}
	}
}

// scaleCand is one due policy evaluation, snapshotted under rc.mu.
type scaleCand struct {
	name    string
	version uint64
	cur     int
	pol     ScalePolicy
}

// tick evaluates every due policy once and applies at most one resize
// per application. Candidate state is snapshotted under rc.mu; the
// decisions run unlocked through the versioned API, so a stale snapshot
// costs a rejected handle, never a wrong mutation.
func (a *Autoscaler) tick(now time.Time) {
	a.rc.mu.Lock()
	free := len(a.rc.availableLocked())
	scaledTotal := 0
	var cands []scaleCand
	for name, app := range a.rc.apps {
		if app.spec.Scale == nil || app.spec.SPMD {
			continue
		}
		if app.Status != StatusRunning {
			continue
		}
		scaledTotal += app.Tasks
		pol := app.spec.Scale.withDefaults()
		if pol.Max < pol.Min {
			pol.Max = max(pol.Min, app.Tasks)
		}
		if now.Sub(a.last[name]) < pol.Interval {
			continue
		}
		cands = append(cands, scaleCand{name: name, version: app.Version,
			cur: app.Tasks, pol: pol})
	}
	a.rc.mu.Unlock()

	queued := 0
	if a.queued != nil {
		queued = a.queued() // outside rc.mu: the JSA's lock order is j.mu -> rc.mu
	}
	for _, c := range cands {
		a.last[c.name] = now
		target := a.decide(c, free, queued)
		if target == c.cur {
			continue
		}
		if grow := target - c.cur; grow > 0 && a.budget > 0 && scaledTotal+grow > a.budget {
			coordScaleDenied.Inc()
			continue
		}
		coordScaleDecisions.Inc()
		if _, err := a.rc.ResizeApp(AppHandle{App: c.name, Version: c.version}, target); err != nil {
			// A stale handle or a busy application: the next tick re-reads
			// the state and decides again. ResizeApp already counted the
			// fallback if the swap itself failed.
			continue
		}
		scaledTotal += target - c.cur
		free -= target - c.cur
	}
}

// decide picks one application's target task count under its policy.
func (a *Autoscaler) decide(c scaleCand, free, queued int) int {
	pol := c.pol
	target := c.cur
	if pol.Signal != "" {
		v, ok := obs.Default.Value(pol.Signal)
		if !ok {
			return c.cur
		}
		switch {
		case pol.GrowAbove != 0 && v >= pol.GrowAbove:
			target = c.cur + pol.Step
		case pol.ShrinkBelow != 0 && v <= pol.ShrinkBelow:
			target = c.cur - pol.Step
		}
	} else {
		switch {
		case queued > 0 && c.cur-pol.Step >= pol.Min:
			// Contended: give processors back so queued work can place.
			target = c.cur - pol.Step
		case free >= pol.Step:
			// Idle capacity: expand into it.
			target = c.cur + pol.Step
		}
	}
	if target > pol.Max {
		target = pol.Max
	}
	if target < pol.Min {
		target = pol.Min
	}
	if target > c.cur && target-c.cur > free {
		target = c.cur + free
		if target <= c.cur {
			return c.cur
		}
	}
	return target
}
