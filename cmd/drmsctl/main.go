// Command drmsctl demonstrates the DRMS controlling infrastructure (§4):
// it brings up a resource coordinator and a pool of task coordinators,
// then plays one of three scenarios:
//
//	-scenario failure      a processor fails mid-run; the recovery
//	                       supervisor autonomously restarts the
//	                       application from its newest verified
//	                       checkpoint on the surviving processors
//	-scenario reconfigure  the JSA grows a running job through a
//	                       system-initiated checkpoint and restart
//	-scenario schedule     two jobs compete for processors; the second
//	                       queues until the first finishes
//	-scenario elastic      the autoscaler expands a scale-managed job
//	                       into the idle machine through in-flight
//	                       resizes (no restart, same incarnation), then
//	                       shrinks it to make room for a queued batch
//	                       job
//
// Events from the RC (the user-interface surface) are printed as they
// arrive.
//
// Exit codes (remote mode), in the drmsfsck discipline of one meaning
// per code:
//
//	0  the operation succeeded
//	1  the daemon answered but the operation failed (unknown
//	   application, stale handle, quota, protocol error, ...)
//	2  usage error (bad flags or scenario)
//	3  daemon unreachable: nothing is listening at -connect — the
//	   daemon is down or the address is wrong. Distinguished from 1 so
//	   scripts and health checks can tell "drmsd died" from "my request
//	   was bad" without parsing messages.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"drms/internal/apps"
	"drms/internal/ckpt"
	"drms/internal/coord"
	"drms/internal/pfs"
)

func main() {
	scenario := flag.String("scenario", "failure", "local demo: failure, reconfigure, schedule, or elastic")
	nodes := flag.Int("nodes", 4, "processors in the machine (local demos)")
	connect := flag.String("connect", "", "address of a running drmsd; switches to remote mode")
	op := flag.String("op", "apps", "remote op: nodes, apps, status, wait, submit, open, checkpoint, stop, reconfigure, resize, failnode, verify, events, stats")
	name := flag.String("name", "", "remote: application name")
	kernel := flag.String("kernel", "bt", "remote submit: bt, lu, sp")
	class := flag.String("class", "S", "remote submit: problem class")
	minT := flag.Int("min", 1, "remote submit: minimum tasks")
	maxT := flag.Int("max", 2, "remote submit: maximum tasks")
	tasks := flag.Int("tasks", 0, "remote reconfigure/resize: new task count")
	scaleMin := flag.Int("scale-min", 0, "remote submit: autoscaler floor (with -scale-max; needs drmsd -autoscale)")
	scaleMax := flag.Int("scale-max", 0, "remote submit: autoscaler ceiling; > 0 puts the job under the daemon's autoscaler")
	iters := flag.Int("iters", 20, "remote submit: iterations")
	node := flag.Int("node", 0, "remote failnode: processor")
	prefix := flag.String("prefix", "", "remote verify: checkpoint prefix")
	timeout := flag.Duration("timeout", 60*time.Second, "remote wait: how long to block for the application to settle")
	recoverJob := flag.Bool("recover", false, "remote submit: run the job under the recovery supervisor")
	version := flag.Uint64("version", 0, "remote checkpoint/stop/resize: state version from a prior 'open' — the op is rejected if the application has moved past it (0: open the application first and use the version it returns)")
	flag.Parse()

	if *connect != "" {
		if *op == "wait" {
			// The event-driven wait: one blocking round trip parks the
			// server on the application's settle channel — no polling.
			cl := dialDaemon(*connect)
			defer cl.Close()
			status, err := cl.WaitStatus(*name, *timeout)
			check(err)
			fmt.Printf("%-12s %s\n", *name, status)
			return
		}
		remote(*connect, coord.Request{Op: *op, Name: *name, Kernel: *kernel,
			Class: *class, Min: *minT, Max: *maxT, Tasks: *tasks, Iters: *iters,
			Node: *node, Prefix: *prefix, Recover: *recoverJob, Version: *version,
			ScaleMin: *scaleMin, ScaleMax: *scaleMax})
		return
	}

	fs := pfs.NewSystem(pfs.DefaultConfig())
	rc, err := coord.NewRCOpts(fs, coord.RCOptions{HBTimeout: 500 * time.Millisecond})
	check(err)
	defer rc.Close()

	events, _ := rc.Subscribe()
	go func() {
		for e := range events {
			if e.App != "" {
				fmt.Printf("[rc] %-14s app=%-6s %s%s\n", e.Kind, e.App, e.Detail, recoveryInfo(e))
			} else {
				fmt.Printf("[rc] %-14s node=%d %s\n", e.Kind, e.Node, e.Detail)
			}
		}
	}()

	fmt.Printf("starting %d task coordinators...\n", *nodes)
	tcs, err := coord.Pool(rc, *nodes, 50*time.Millisecond, 10*time.Second)
	check(err)

	switch *scenario {
	case "failure":
		failureScenario(fs, rc, tcs)
	case "reconfigure":
		reconfigureScenario(rc)
	case "schedule":
		scheduleScenario(rc)
	case "elastic":
		elasticScenario(rc)
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(exitUsage)
	}
	time.Sleep(100 * time.Millisecond) // let the event printer drain
}

func failureScenario(fs *pfs.System, rc *coord.RC, tcs []*coord.TC) {
	k := apps.BT()
	out := make(chan float64, 1)
	s := coord.AppSpec{Name: "job", Body: k.App(apps.RunConfig{
		Class: apps.ClassS, Iters: 400, CkEvery: 25, Prefix: "job", OnDone: out,
	}), Recovery: &coord.RecoveryPolicy{}}
	fmt.Println("launching BT on 3 processors under the recovery supervisor...")
	check(rc.Launch(s, 3, false))

	// Wait for a checkpoint, then fail a processor; the supervisor
	// reconfigures onto the survivors and restarts on its own.
	for !ckpt.Exists(fs, "job") {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Println("injecting failure on processor 1...")
	tcs[1].Fail()
	status, err := rc.WaitApp("job")
	check(err)
	fmt.Printf("application status after autonomous recovery: %s, checksum %.6e\n", status, <-out)
}

func reconfigureScenario(rc *coord.RC) {
	k := apps.SP()
	out := make(chan float64, 1)
	s := coord.AppSpec{Name: "sim", Body: k.App(apps.RunConfig{
		Class: apps.ClassS, Iters: 2000, CkEvery: 3, Prefix: "sim", EnableSOP: true, OnDone: out,
	})}
	jsa := coord.NewJSA(rc)
	check(jsa.Submit(coord.Job{Spec: s, Min: 1, Max: 4}))
	fmt.Println("job running; growing it to the full machine via checkpoint/restart...")
	check(jsa.Reconfigure("sim", 4, 30*time.Second))
	status, err := rc.WaitApp("sim")
	check(err)
	fmt.Printf("status: %s, checksum %.6e\n", status, <-out)
}

func scheduleScenario(rc *coord.RC) {
	jsa := coord.NewJSA(rc)
	k := apps.LU()
	outA, outB := make(chan float64, 1), make(chan float64, 1)
	a := coord.AppSpec{Name: "first", Body: k.App(apps.RunConfig{
		Class: apps.ClassS, Iters: 30, CkEvery: 10, Prefix: "first", OnDone: outA})}
	b := coord.AppSpec{Name: "second", Body: k.App(apps.RunConfig{
		Class: apps.ClassS, Iters: 30, CkEvery: 10, Prefix: "second", OnDone: outB})}
	check(jsa.Submit(coord.Job{Spec: a, Min: 4, Max: 4}))
	check(jsa.Submit(coord.Job{Spec: b, Min: 2, Max: 4}))
	fmt.Printf("jobs queued behind 'first': %d\n", jsa.Queued())
	st, err := rc.WaitApp("first")
	check(err)
	fmt.Printf("first: %s, checksum %.6e\n", st, <-outA)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, ok := rc.App("second"); ok {
			break
		}
		if time.Now().After(deadline) {
			check(fmt.Errorf("second job never dispatched"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err = rc.WaitApp("second")
	check(err)
	fmt.Printf("second: %s, checksum %.6e\n", st, <-outB)
}

// elasticScenario demonstrates the in-flight resize under autoscaler
// control: a scale-managed job launched on one processor expands into
// the idle machine — each step is an app-resized event, no restart, the
// incarnation never moves — then contracts when a batch job queues up,
// and grows back once the batch finishes.
func elasticScenario(rc *coord.RC) {
	jsa := coord.NewJSA(rc)
	k := apps.SP()
	s := coord.AppSpec{Name: "elastic", Body: k.App(apps.RunConfig{
		Class: apps.ClassS, Iters: 1 << 20, CkEvery: 3, Prefix: "elastic",
	}), Scale: &coord.ScalePolicy{Min: 1, Max: 4, Interval: 100 * time.Millisecond}}
	fmt.Println("launching an elastic SP job on 1 processor; the autoscaler expands it into the idle machine...")
	check(rc.Launch(s, 1, false))
	as := coord.NewAutoscaler(rc, jsa, 0)
	defer as.Close()

	waitTasks := func(want int, what string) {
		deadline := time.Now().Add(60 * time.Second)
		for {
			if info, ok := rc.App("elastic"); ok && info.Tasks == want {
				return
			}
			if time.Now().After(deadline) {
				check(fmt.Errorf("timeout waiting for %s", what))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitTasks(4, "the grow to the full machine")
	info, _ := rc.App("elastic")
	fmt.Printf("elastic job now at %d tasks, incarnation %d — grown in flight, never restarted\n",
		info.Tasks, info.Incarnation)

	outB := make(chan float64, 1)
	b := coord.AppSpec{Name: "batch", Body: apps.LU().App(apps.RunConfig{
		Class: apps.ClassS, Iters: 30, CkEvery: 10, Prefix: "batch", OnDone: outB})}
	check(jsa.Submit(coord.Job{Spec: b, Min: 2, Max: 2}))
	fmt.Println("a 2-task batch job queued; the autoscaler shrinks the elastic job to make room...")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, ok := rc.App("batch"); ok {
			break
		}
		if time.Now().After(deadline) {
			check(fmt.Errorf("the batch job never dispatched"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, err := rc.WaitApp("batch")
	check(err)
	fmt.Printf("batch: %s, checksum %.6e\n", st, <-outB)

	waitTasks(4, "the grow back after the batch finished")
	as.Close()
	h, _, err := rc.OpenApp("elastic")
	check(err)
	_, err = rc.StopApp(h)
	check(err)
	st, err = rc.WaitApp("elastic")
	check(err)
	info, _ = rc.App("elastic")
	fmt.Printf("elastic: %s at incarnation %d after scaling 1->4->2->4 in flight\n", st, info.Incarnation)
}

// Exit codes of the remote mode (see the command comment).
const (
	exitErr   = 1 // daemon answered; the operation failed
	exitUsage = 2 // bad flags or scenario
	exitDown  = 3 // daemon unreachable at -connect
)

// dialDaemon connects to the control address or exits with the
// documented "daemon down" code — a dial failure means nothing is
// listening there, which callers must be able to tell from an op the
// daemon rejected.
func dialDaemon(addr string) *coord.ControlClient {
	cl, err := coord.DialControl(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drmsctl: daemon unreachable at %s: %v\n", addr, err)
		os.Exit(exitDown)
	}
	return cl
}

// remote executes one control-protocol request against a drmsd and prints
// the reply.
func remote(addr string, req coord.Request) {
	cl := dialDaemon(addr)
	defer cl.Close()
	if mutates := req.Op == "checkpoint" || req.Op == "stop" || req.Op == "resize"; mutates && req.Version == 0 {
		open, err := cl.Do(coord.Request{Op: "open", Name: req.Name})
		check(err)
		req.Version = open.Version
	}
	resp, err := cl.Do(req)
	check(err)
	switch req.Op {
	case "nodes":
		fmt.Printf("available processors: %v\n", resp.Nodes)
	case "apps":
		if len(resp.Apps) == 0 {
			fmt.Println("no applications")
		}
		for _, a := range resp.Apps {
			printApp(a)
		}
		if resp.Queued > 0 {
			fmt.Printf("queued jobs: %d\n", resp.Queued)
		}
	case "status":
		printApp(*resp.App)
	case "open":
		printApp(*resp.App)
		fmt.Printf("version: %d (pass to -op checkpoint/stop via -version)\n", resp.Version)
	case "checkpoint", "stop", "resize":
		fmt.Printf("ok (version %d)\n", resp.Version)
	case "events":
		for _, e := range resp.Events {
			fmt.Printf("%-14s app=%-8s node=%d %s%s\n", e.Kind, e.App, e.Node, e.Detail, recoveryInfo(e))
		}
	case "stats":
		// The daemon's metrics registry in the Prometheus text format —
		// the same snapshot the -obs listener serves at /metrics.
		fmt.Print(resp.Stats)
	default:
		fmt.Println("ok")
	}
}

// printApp renders one application line; the incarnation counts the
// supervisor's restarts (0 = the original launch).
func printApp(a coord.AppInfo) {
	fmt.Printf("%-12s %-10s tasks=%d inc=%d nodes=%v %s\n",
		a.Name, a.Status, a.Tasks, a.Incarnation, a.Nodes, a.Err)
}

// recoveryInfo renders the recovery telemetry an event may carry: the
// restart attempt, the pool it relaunched on, the generation restored
// (-1 = from scratch), and the failure-to-recovery latency. Localized
// recoveries (app-partial-recovery) and coordinator re-adoptions
// (app-readopted) have no attempt number — they are not restarts — and
// render their own telemetry.
func recoveryInfo(e coord.Event) string {
	switch e.Kind {
	case coord.EventAppPartialRecovery:
		s := "  [localized"
		if e.Tasks > 0 {
			s += fmt.Sprintf(" tasks=%d", e.Tasks)
		}
		return s + fmt.Sprintf(" gen=%d ttr=%s]", e.Gen, e.TTR.Round(time.Millisecond))
	case coord.EventAppReadopted:
		s := "  [re-adopted"
		if e.Tasks > 0 {
			s += fmt.Sprintf(" tasks=%d", e.Tasks)
		}
		if e.Gen > 0 || e.Detail == "" {
			s += fmt.Sprintf(" gen=%d", e.Gen)
		}
		return s + "]"
	case coord.EventAppResized:
		return fmt.Sprintf("  [resized %d->%d ttr=%s]",
			e.FromTasks, e.Tasks, e.TTR.Round(time.Millisecond))
	}
	if e.Attempt == 0 {
		return ""
	}
	s := fmt.Sprintf("  [attempt=%d", e.Attempt)
	if e.Tasks > 0 {
		s += fmt.Sprintf(" tasks=%d", e.Tasks)
	}
	if e.Kind == coord.EventAppRecovered {
		s += fmt.Sprintf(" gen=%d ttr=%s", e.Gen, e.TTR.Round(time.Millisecond))
	}
	return s + "]"
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitErr)
	}
}
