package coord

import (
	"fmt"
	"sync"
	"time"

	"drms/internal/ckpt"
)

// Job is a malleable job under JSA control: it can run on any task count
// in [Min, Max] and, because its application is DRMS-reconfigurable, can
// be checkpointed and restarted on a different count while queued work
// and priorities shift (§4 item 2, §8).
type Job struct {
	Spec AppSpec
	Min  int
	Max  int
}

// JSA is the job scheduler and analyzer: it queues submitted jobs,
// dispatches them onto free processors as TCs register and applications
// finish, and reconfigures running applications through
// checkpoint/restart.
type JSA struct {
	rc *RC

	mu      sync.Mutex
	queue   []Job
	running map[string]Job
}

// NewJSA attaches a scheduler to a resource coordinator.
func NewJSA(rc *RC) *JSA {
	j := &JSA{rc: rc, running: make(map[string]Job)}
	rc.OnChange(j.dispatch)
	return j
}

// Submit queues a job and immediately tries to place it. Jobs dispatch in
// submission order (FCFS) with as many processors as available, capped at
// Max and never below Min.
func (j *JSA) Submit(job Job) error { return j.SubmitQuota(job, 0) }

// SubmitQuota is Submit under a per-tenant admission quota (0 = no
// quota). The tenant's admission count and the enqueue happen under one
// critical section, so concurrent submits for the same tenant serialize
// and can never jointly exceed the quota (no check-then-act window).
func (j *JSA) SubmitQuota(job Job, quota int) error {
	if job.Min < 1 || job.Max < job.Min {
		return fmt.Errorf("jsa: invalid task range [%d, %d]", job.Min, job.Max)
	}
	j.mu.Lock()
	if quota > 0 {
		tenant := tenantOf(job.Spec.Name)
		if admitted := j.admittedLocked(tenant); admitted >= quota {
			j.mu.Unlock()
			coordQuotaRejections.Inc()
			return fmt.Errorf("jsa: tenant %q at admission quota (%d of %d applications admitted on this shard)",
				tenant, admitted, quota)
		}
	}
	j.queue = append(j.queue, job)
	j.mu.Unlock()
	j.dispatch()
	return nil
}

// admittedLocked counts the admission slots a tenant holds on this
// shard: queued jobs, dispatched jobs whose launch is still in flight,
// and applications not yet settled in the RC. j.mu must be held; it
// takes rc.mu inside, matching dispatch's j.mu -> rc.mu lock order.
func (j *JSA) admittedLocked(tenant string) int {
	n := 0
	for _, q := range j.queue {
		if tenantOf(q.Spec.Name) == tenant {
			n++
		}
	}
	j.rc.mu.Lock()
	n += j.rc.admittedLocked(tenant)
	for name := range j.running {
		if tenantOf(name) != tenant {
			continue
		}
		if _, known := j.rc.apps[name]; !known {
			n++ // dequeued by dispatch, Launch in flight: the slot is held
		}
	}
	j.rc.mu.Unlock()
	return n
}

// dispatch places queued jobs onto free processors, FCFS.
func (j *JSA) dispatch() {
	for {
		j.mu.Lock()
		if len(j.queue) == 0 {
			j.mu.Unlock()
			return
		}
		job := j.queue[0]
		free := len(j.rc.AvailableNodes())
		if free < job.Min {
			j.mu.Unlock()
			return // head-of-line blocks; keep FCFS order
		}
		j.queue = j.queue[1:]
		j.running[job.Spec.Name] = job
		j.mu.Unlock()

		tasks := min(free, job.Max)
		restart := ckpt.Exists(j.rc.fs, job.Spec.Name)
		if err := j.rc.Launch(job.Spec, tasks, restart); err != nil {
			// Put it back and stop; a later change re-triggers dispatch.
			j.mu.Lock()
			delete(j.running, job.Spec.Name)
			j.queue = append([]Job{job}, j.queue...)
			j.mu.Unlock()
			return
		}
	}
}

// Queued returns the number of jobs waiting for processors.
func (j *JSA) Queued() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.queue)
}

// Reconfigure moves a running application to a new task count through the
// checkpoint/restart path: it arms a system-initiated checkpoint, asks
// the application to stop at its next SOP, waits for it to exit, and
// relaunches it from the archived state on newTasks processors. The
// application must use ReconfigChkEnable at its SOP and honor
// StopRequested (the AppSpec convention).
func (j *JSA) Reconfigure(name string, newTasks int, timeout time.Duration) error {
	h, info, err := j.rc.OpenApp(name)
	if err != nil || info.Status != StatusRunning {
		return fmt.Errorf("jsa: application %q not running", name)
	}
	j.mu.Lock()
	job, known := j.running[name]
	j.mu.Unlock()
	if !known {
		return fmt.Errorf("jsa: application %q not under JSA control", name)
	}
	if newTasks < job.Min || newTasks > job.Max {
		return fmt.Errorf("jsa: %d tasks outside job range [%d, %d]", newTasks, job.Min, job.Max)
	}

	// Versioned mutations: arming the checkpoint advances the state
	// version and the returned handle chains into the stop. A concurrent
	// mutation (another controller, or the supervisor) invalidates the
	// chain — the reconfiguration then fails cleanly instead of stopping
	// an application whose state it no longer understands.
	h, err = j.rc.CheckpointApp(h)
	if err != nil {
		return fmt.Errorf("jsa: reconfiguring %q: %w", name, err)
	}
	if _, err := j.rc.StopApp(h); err != nil {
		return fmt.Errorf("jsa: reconfiguring %q: %w", name, err)
	}
	// Event-driven through the RC's settle channel, no polling.
	status, settled, err := j.rc.WaitAppSettled(name, timeout)
	if !settled {
		if err != nil {
			return fmt.Errorf("jsa: unknown application %q", name)
		}
		return fmt.Errorf("jsa: application %q did not stop within %v", name, timeout)
	}
	if status != StatusFinished {
		return fmt.Errorf("jsa: application %q ended %s during reconfiguration", name, status)
	}
	if !ckpt.Exists(j.rc.fs, name) {
		return fmt.Errorf("jsa: application %q left no checkpoint to reconfigure from", name)
	}
	return j.rc.Launch(job.Spec, newTasks, true)
}
