package drms

import (
	"fmt"
	"sync"
)

// MPMD support (§2.2 of the paper): an MPMD application is a collection
// of SPMD components, each with its own task set and distributed data
// set. A globally consistent point of the whole application is a *set of
// SOPs*, one per component; checkpointing the components at such a point
// archives a state from which the collection can be restarted — each
// component reconfigured independently.
//
// Group provides the cross-component coordination: a reusable barrier
// spanning the components (Sync) and a coordinated checkpoint
// (Task.GroupCheckpoint) that brackets the per-component checkpoints in
// group barriers, so no component races ahead and mutates shared state
// while another is still archiving. Components exchange data only
// through group-synchronized points (e.g. array-section streaming on the
// shared file system between Syncs), which is what makes the set of SOPs
// consistent — there are no in-flight messages to capture.

// Group coordinates the components of one MPMD application.
type Group struct {
	n int

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     int
	err     error // sticky: set by Abort, returned by every later arrival
}

// NewGroup creates a coordination group for n components.
func NewGroup(n int) *Group {
	if n < 1 {
		panic(fmt.Sprintf("drms: group of %d components", n))
	}
	g := &Group{n: n}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Abort marks the group dead: every pending and future arrival returns
// err instead of waiting for components that will never come. RunMPMD
// aborts the group when any component fails, so the survivors' group
// barriers unwind instead of hanging — the MPMD analogue of communicator
// revocation. Idempotent; the first error sticks.
func (g *Group) Abort(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// arrive blocks the calling component until all n components arrive,
// then releases them together. Reusable (generation-counted). Returns
// the group's abort error if it is (or becomes) dead.
func (g *Group) arrive() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return g.err
	}
	gen := g.gen
	g.arrived++
	if g.arrived == g.n {
		g.arrived = 0
		g.gen++
		g.cond.Broadcast()
		return nil
	}
	for gen == g.gen && g.err == nil {
		g.cond.Wait()
	}
	return g.err
}

// Sync is a barrier across every task of every component: no task
// returns until all components have entered. Each component's task 0
// represents it at the group rendezvous; the other tasks wait on an
// intra-component broadcast. A dead group (see Abort) or revoked
// communicator unwinds every task with an error.
func (g *Group) Sync(t *Task) error {
	if err := t.comm.Barrier(); err != nil { // all of this component's tasks have entered
		return err
	}
	if t.Rank() == 0 {
		if err := g.arrive(); err != nil {
			// The rendezvous failed; revoke the component's communicator so
			// the peer tasks blocked in the release broadcast below unwind
			// too, then report why.
			t.comm.Revoke()
			return err
		}
	}
	_, err := t.comm.Bcast(0, nil) // released only after task 0 clears the rendezvous
	return err
}

// GroupCheckpoint is the MPMD SOP: the component checkpoints under the
// given prefix (which the caller derives from the application prefix and
// the component name; see ComponentPrefix) once *all* components have
// reached their SOPs, and no component proceeds until all checkpoints
// are complete. The first call of an epoch with a restore pending — a
// restarted component, a rollback or resize epoch — serves it instead,
// exactly like ReconfigCheckpoint; restores need no cross-component
// coordination because they only read.
func (t *Task) GroupCheckpoint(g *Group, prefix string) (Status, int, error) {
	if st, delta, served, err := t.servePending(); served {
		return st, delta, err
	}
	if err := g.Sync(t); err != nil { // every component is at its SOP: the set is consistent
		return Failed, 0, err
	}
	if err := t.write(prefix, false); err != nil {
		return Failed, 0, err
	}
	if err := g.Sync(t); err != nil { // all archives complete before anyone moves on
		return Failed, 0, err
	}
	return Continued, 0, nil
}

// ComponentPrefix names a component's slice of an MPMD checkpoint.
func ComponentPrefix(appPrefix, component string) string {
	return appPrefix + "." + component
}

// Component describes one SPMD component of an MPMD application.
type Component struct {
	Name  string
	Tasks int
	// Body runs on every task of the component. It receives the group
	// and the component's checkpoint prefix.
	Body func(t *Task, g *Group, prefix string) error
}

// RunMPMD launches the components of an MPMD application concurrently
// against one file system and waits for all of them. With restart true,
// every component restores from its slice of the checkpoint under
// appPrefix; component task counts may differ from the checkpointing
// run arbitrarily and independently.
func RunMPMD(cfg Config, appPrefix string, restart bool, comps []Component) error {
	g := NewGroup(len(comps))
	handles := make([]*Handle, 0, len(comps))
	for _, comp := range comps {
		comp := comp
		ccfg := cfg
		ccfg.Tasks = comp.Tasks
		prefix := ComponentPrefix(appPrefix, comp.Name)
		if restart {
			ccfg.RestartFrom = prefix
		}
		h, err := Start(ccfg, func(t *Task) error {
			if err := comp.Body(t, g, prefix); err != nil {
				// A failed component aborts the group so sibling components
				// blocked at a rendezvous unwind instead of waiting forever.
				g.Abort(fmt.Errorf("drms: component %q: %w", comp.Name, err))
				return err
			}
			return nil
		})
		if err != nil {
			// Components already launched must be torn down, or their
			// group syncs will hang.
			for _, prev := range handles {
				prev.Kill()
				prev.Wait()
			}
			return fmt.Errorf("drms: starting component %q: %w", comp.Name, err)
		}
		handles = append(handles, h)
	}
	return WaitAll(handles...)
}
