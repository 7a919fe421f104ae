package main

import (
	"fmt"
	"time"

	"drms/internal/ckpt"
	"drms/internal/coord"
	"drms/internal/drms"
)

// coordEngine drives one supervised application launched by a resource
// coordinator over real loopback TC connections: the coord-recover
// workload. Every cycle fails the TC of a node the application occupies;
// the supervisor detects the loss, unwinds the incarnation, resolves the
// newest verified generation and relaunches on the survivors plus the
// spare.
type coordEngine struct {
	*session
	rc     *coord.RC
	tcs    map[int]*coord.TC
	events <-chan coord.Event
	cancel func()
}

const (
	coordNodes = 4 // TCs in the pool: 3 for the application, 1 spare
	coordTasks = 3
	// Failure detection is the connection drop itself, so the heartbeat
	// only has to stay out of the way of the measurement.
	hbInterval = 250 * time.Millisecond
	hbTimeout  = 5 * time.Second
	rcState    = "rcstate"
)

func (e *coordEngine) live() *session { return e.session }

func (e *coordEngine) rcOptions() coord.RCOptions {
	return coord.RCOptions{HBTimeout: hbTimeout, StatePrefix: rcState,
		Catalog: func(string) (coord.AppSpec, bool) { return e.spec(), true }}
}

func (e *coordEngine) spec() coord.AppSpec {
	cfg := e.w.config(e.fs, nil)
	return coord.AppSpec{Name: ckptPrefix, Body: e.app.body, Keep: cfg.Keep, Stream: cfg.Stream,
		Recovery: &coord.RecoveryPolicy{Budget: 1 << 30, Backoff: time.Millisecond, BackoffMax: time.Millisecond}}
}

func (e *coordEngine) setup() error {
	e.out.ops++
	start := time.Now()
	rc, err := coord.NewRCOpts(e.fs, e.rcOptions())
	if err != nil {
		return err
	}
	e.rc = rc
	e.events, e.cancel = rc.Subscribe()
	pool, err := coord.Pool(rc, coordNodes, hbInterval, opTimeout)
	if err != nil {
		return err
	}
	e.tcs = map[int]*coord.TC{}
	for _, tc := range pool {
		e.tcs[tc.Node()] = tc
	}
	first := e.tr.driver("first_generation")
	defer first.end()
	sp := e.tr.begin("coord.RC.Launch", first)
	err = rc.Launch(e.spec(), coordTasks, false)
	sp.end()
	if err != nil {
		return err
	}
	e.tasks = coordTasks
	if err := e.await(coordTasks, drms.Continued); err != nil {
		return fmt.Errorf("first generation: %w", err)
	}
	e.out.cold = append(e.out.cold, time.Since(start))
	return nil
}

func (e *coordEngine) teardown() error {
	err := e.send(ticket{kind: tkStop})
	if err == nil {
		var status coord.AppStatus
		if status, err = e.rc.WaitApp(ckptPrefix); err == nil && status != coord.StatusFinished {
			err = fmt.Errorf("application settled %s, want finished", status)
		}
	}
	e.cancel()
	for _, tc := range e.tcs {
		tc.Stop()
	}
	e.rc.Close()
	return err
}

// waitEvent drains the subscription until an event of the kind arrives
// (for the node, when node >= 0) and returns when it was received.
func (e *coordEngine) waitEvent(kind coord.EventKind, node int) (time.Time, error) {
	t := time.NewTimer(opTimeout)
	defer t.Stop()
	for {
		select {
		case ev := <-e.events:
			if ev.Kind == coord.EventAppStalled {
				return time.Time{}, fmt.Errorf("supervisor gave up: %s", ev.Detail)
			}
			if ev.Kind == kind && (node < 0 || ev.Node == node) {
				return time.Now(), nil
			}
		case <-t.C:
			return time.Time{}, fmt.Errorf("no %s event within %v", kind, opTimeout)
		}
	}
}

func (e *coordEngine) cycle(timed bool) error {
	before := readPlanCounters()
	if err := e.steady(timed); err != nil {
		return err
	}
	if err := e.publish(); err != nil {
		return err
	}
	e.out.ops++
	info, ok := e.rc.App(ckptPrefix)
	if !ok || len(info.Nodes) != coordTasks {
		return fmt.Errorf("application occupies %v, want %d nodes", info.Nodes, coordTasks)
	}
	node := info.Nodes[e.next()%coordTasks]
	// Park first: a failure finds a computing application inside its
	// communicator, and the revoke can only reach ranks that are.
	if err := e.send(ticket{kind: tkPark}); err != nil {
		return err
	}
	stop := e.recoveryTrace()
	sp := e.tr.driver("coord.TC.Fail")
	start := time.Now()
	e.tcs[node].Fail()
	down, err := e.waitEvent(coord.EventTCDown, node)
	if err != nil {
		return err
	}
	up, err := e.waitEvent(coord.EventAppRecovered, -1)
	if err != nil {
		return err
	}
	err = e.await(coordTasks, drms.Restored)
	end := time.Now()
	sp.end()
	stop()
	if err != nil {
		return fmt.Errorf("recovered incarnation: %w", err)
	}
	if timed {
		e.out.recovery = append(e.out.recovery, end.Sub(start))
		if e.tr != nil {
			e.out.detect = append(e.out.detect, down.Sub(start))
			e.out.relaunch = append(e.out.relaunch, up.Sub(down))
			e.out.restoreTail = append(e.out.restoreTail, end.Sub(up))
		}
	}
	if err := e.verifyLive("after supervised recovery"); err != nil {
		return err
	}
	// Repair the node (untimed): a fresh TC re-registers it as the spare.
	tc, err := coord.StartTC(e.rc.Addr(), node, hbInterval)
	if err != nil {
		return err
	}
	e.tcs[node] = tc
	if _, err := e.waitEvent(coord.EventTCUp, node); err != nil {
		return err
	}
	if err := e.settle(); err != nil {
		return err
	}
	if timed && e.tr != nil {
		e.notePlans(before)
	}
	return nil
}

// probes times the control plane's own operations against the live
// coordinator and application, and ends with one coordinator crash that
// the successor must recover from by re-adopting the running application.
func (e *coordEngine) probes(p *prober) error {
	var opens, arms, syncs []time.Duration
	for i := 0; i < 4*probeReps; i++ {
		start := time.Now()
		h, _, err := e.rc.OpenApp(ckptPrefix)
		opens = append(opens, time.Since(start))
		if err != nil {
			return err
		}
		// Arming a system-initiated checkpoint is a control-plane mutation
		// the ticket-driven body never consumes: it dirties the tables
		// without touching the application.
		start = time.Now()
		if _, err := e.rc.CheckpointApp(h); err != nil {
			return err
		}
		arms = append(arms, time.Since(start))
		start = time.Now()
		if _, ok := e.rc.SyncState(); !ok {
			return fmt.Errorf("control-plane self-checkpointing is off")
		}
		syncs = append(syncs, time.Since(start))
	}
	p.m["coord.open_app_us"] = us(medianDur(opens))
	p.m["coord.checkpoint_app_us"] = us(medianDur(arms))
	p.m["coord.sync_state_ms"] = ms(medianDur(syncs))
	_, gen, ok := ckpt.Rotation{Base: rcState}.Latest(e.fs)
	if !ok {
		return fmt.Errorf("no committed control-plane generation")
	}
	stateBytes, err := generationFileBytes(e.fs, gen)
	if err != nil {
		return err
	}
	p.m["coord.state_bytes_per_commit"] = float64(stateBytes)

	srv := &coord.ControlServer{RC: e.rc}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	cl, err := coord.DialControl(addr)
	if err != nil {
		srv.Close()
		return err
	}
	var rerr error
	p.m["coord.control_rtt_us"] = us(repeatFor(func() {
		if _, err := cl.Do(coord.Request{Op: "status", Name: ckptPrefix}); err != nil {
			rerr = err
		}
	}))
	cl.Close()
	srv.Close()
	if rerr != nil {
		return rerr
	}

	// A second, one-task application on the spare node: Launch -> its
	// first generation committed.
	probe := newApp(&workload{name: "launch-probe", arrays: e.w.arrays, window: 1}, e.seed, true, nil)
	probe.prefix = "launch-probe"
	spec := e.spec()
	spec.Name, spec.Body, spec.Recovery = probe.prefix, probe.body, nil
	var launches []time.Duration
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		if err := e.rc.Launch(spec, 1, false); err != nil {
			return err
		}
		if _, err := awaitReports(probe, 1, drms.Continued, nil); err != nil {
			return err
		}
		launches = append(launches, time.Since(start))
		probe.tickets <- ticket{kind: tkStop}
		if status, err := e.rc.WaitApp(spec.Name); err != nil || status != coord.StatusFinished {
			return fmt.Errorf("launch probe settled %s: %v", status, err)
		}
	}
	p.m["coord.launch_ms"] = ms(medianDur(launches))

	// Coordinator crash: the successor restores the tables from the
	// newest verified snapshot and re-adopts the application by lease.
	e.cancel()
	start := time.Now()
	rem := e.rc.Crash()
	rc, report, err := coord.RecoverRC(e.fs, e.rcOptions(), rem)
	if err != nil {
		return err
	}
	p.m["coord.rc_recover_ms"] = ms(time.Since(start))
	e.rc = rc
	e.events, e.cancel = rc.Subscribe()
	for _, tc := range e.tcs {
		if err := tc.Reconnect(rc.Addr()); err != nil {
			return err
		}
	}
	if len(report.Readopted) != 1 || report.Readopted[0] != ckptPrefix {
		return fmt.Errorf("recovered coordinator re-adopted %v, want [%s]", report.Readopted, ckptPrefix)
	}
	return e.verifyLive("after coordinator recovery")
}
