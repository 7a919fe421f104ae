// Command drmsd is the DRMS installation daemon: it brings up the
// resource coordinator, one task coordinator per processor, the job
// scheduler, and serves the control protocol for drmsctl clients (the
// full Figure 6 stack in one process).
//
// Usage:
//
//	drmsd -nodes 8 -listen 127.0.0.1:7070 [-state /tmp/state.pfs]
//	drmsctl -connect 127.0.0.1:7070 -op submit -name job1 -kernel bt ...
//
// With -state, checkpointed application state is loaded at startup and
// saved on shutdown (SIGINT or SIGTERM), so jobs can be restarted across
// daemon runs.
//
// With -auto-recover, every submitted job runs under the recovery
// supervisor: when a processor failure kills it, the RC re-sizes the
// pool from the survivors, restores the newest checkpoint generation
// that passes integrity verification (quarantining corrupt ones), and
// restarts — retrying under an exponential-backoff budget set by
// -max-retries and -backoff before declaring the job stalled.
//
// With -autoscale, jobs submitted with a scale range (drmsctl -op submit
// -scale-min/-scale-max) are managed by the autoscaler: their task count
// follows pool pressure between the bounds through in-flight resizes —
// checkpoint to the hot tier, communicator swap, redistribution — never
// a restart; -scale-budget caps the processors all autoscaled jobs may
// hold per shard.
//
// With -shards N > 1, the daemon runs fleet mode: N resource
// coordinator replicas, each owning a deterministic hash-slice of the
// application namespace and an equal slice of the processors, fronted
// by a stateless gateway on -listen that routes control ops to the
// owning shard and merges fleet-wide reads. Each shard
// self-checkpoints its control-plane state under "rcstate.s<i>"
// (always on in fleet mode; -rc-state enables it for a solo
// coordinator too), and -quota caps how many applications one tenant —
// the name prefix before the first "/" — may have admitted per shard.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"drms/internal/coord"
	"drms/internal/obs"
	"drms/internal/pfs"
)

func main() {
	nodes := flag.Int("nodes", 4, "processors in the machine")
	listen := flag.String("listen", "127.0.0.1:0", "control protocol listen address (the gateway, in fleet mode)")
	state := flag.String("state", "", "file-system snapshot to load at start and save at exit")
	hbTimeout := flag.Duration("hb-timeout", 2*time.Second, "heartbeat timeout for failure detection")
	autoRecover := flag.Bool("auto-recover", false, "supervise submitted jobs: restart from the newest verified checkpoint after failures")
	maxRetries := flag.Int("max-retries", 5, "restart budget per supervised job before it is declared stalled")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "initial restart backoff; doubles per attempt with jitter")
	obsAddr := flag.String("obs", "", "observability listen address (e.g. 127.0.0.1:9090): serves /metrics, /healthz, and /debug/pprof; off when empty")
	shards := flag.Int("shards", 1, "control-plane shards; > 1 runs fleet mode behind a stateless gateway")
	quota := flag.Int("quota", 0, "per-tenant admission quota per shard (0 = unlimited); tenant = name prefix before '/'")
	rcState := flag.Bool("rc-state", false, "self-checkpoint the coordinator's control-plane state (always on in fleet mode)")
	autoscale := flag.Bool("autoscale", false, "run the autoscaler: jobs submitted with a scale range resize elastically in flight with pool pressure")
	scaleBudget := flag.Int("scale-budget", 0, "processor budget across all autoscaled jobs per shard (0 = uncapped)")
	flag.Parse()

	fs := pfs.NewSystem(pfs.DefaultConfig())
	if *state != "" {
		if err := fs.LoadFile(*state); err == nil {
			fmt.Printf("loaded state from %s\n", *state)
		}
	}
	if *shards < 1 {
		*shards = 1
	}
	if *nodes < *shards {
		check(fmt.Errorf("drmsd: %d processors cannot cover %d shards", *nodes, *shards))
	}

	var recovery *coord.RecoveryPolicy
	if *autoRecover {
		recovery = &coord.RecoveryPolicy{Budget: *maxRetries, Backoff: *backoff}
	}

	// Bring up one coordinator (+ TC slice + scheduler + control server)
	// per shard. Solo mode is the 1-shard special case served directly,
	// with no gateway hop.
	shardAddrs := make([]string, *shards)
	rcs := make([]*coord.RC, *shards)
	servers := make([]*coord.ControlServer, *shards)
	tcByNode := make(map[int]*coord.TC)
	for s := 0; s < *shards; s++ {
		opt := coord.RCOptions{HBTimeout: *hbTimeout, Shard: s, Shards: *shards}
		if *shards > 1 || *rcState {
			opt.StatePrefix = fmt.Sprintf("rcstate.s%d", s)
		}
		rc, err := coord.NewRCOpts(fs, opt)
		check(err)
		defer rc.Close()
		rcs[s] = rc

		// The shard's processor slice: node n belongs to shard n % shards,
		// so every shard gets a near-equal share of any machine size.
		var slice []int
		for n := s; n < *nodes; n += *shards {
			slice = append(slice, n)
		}
		tcs, err := coord.PoolNodes(rc, slice, *hbTimeout/10, 30*time.Second)
		check(err)
		for _, tc := range tcs {
			tcByNode[tc.Node()] = tc
		}

		jsa := coord.NewJSA(rc)
		if *autoscale {
			as := coord.NewAutoscaler(rc, jsa, *scaleBudget)
			defer as.Close()
		}
		servers[s] = &coord.ControlServer{RC: rc, JSA: jsa,
			Recovery: recovery, Quota: *quota, Shard: s,
			FailNode: func(n int) error {
				tc, ok := tcByNode[n]
				if !ok {
					return fmt.Errorf("no processor %d", n)
				}
				tc.Fail()
				return nil
			}}
	}
	// Serve only after every shard's bring-up finished writing tcByNode:
	// the FailNode closures read the map from connection goroutines as
	// soon as a listener opens, so all writes must be done first (the map
	// is read-only from here on).
	for s, srv := range servers {
		shardListen := "127.0.0.1:0"
		if *shards == 1 {
			shardListen = *listen
		}
		addr, err := srv.Serve(shardListen)
		check(err)
		defer srv.Close()
		shardAddrs[s] = addr
	}

	addr := shardAddrs[0]
	if *shards > 1 {
		gw, err := coord.NewGateway(shardAddrs)
		check(err)
		addr, err = gw.Serve(*listen)
		check(err)
		defer gw.Close()
	}

	if *obsAddr != "" {
		ln, err := net.Listen("tcp", *obsAddr)
		check(err)
		defer ln.Close()
		go http.Serve(ln, obs.Default.Handler(func() error {
			for _, rc := range rcs {
				if rc.Closed() {
					return fmt.Errorf("a resource coordinator shard is shut down")
				}
			}
			return nil
		}))
		fmt.Printf("drmsd: observability on http://%s/metrics\n", ln.Addr())
	}
	mode := ""
	if *autoRecover {
		mode = fmt.Sprintf(", auto-recover on (budget %d, backoff %s)", *maxRetries, *backoff)
	}
	if *autoscale {
		mode += ", autoscale on"
		if *scaleBudget > 0 {
			mode += fmt.Sprintf(" (budget %d/shard)", *scaleBudget)
		}
	}
	if *shards > 1 {
		mode += fmt.Sprintf(", fleet mode (%d shards", *shards)
		if *quota > 0 {
			mode += fmt.Sprintf(", quota %d/tenant/shard", *quota)
		}
		mode += ")"
	}
	// A service manager stops the daemon with SIGTERM, a terminal with
	// SIGINT: both save -state. Subscribed before the ready line, so a
	// stop sent on seeing it is never lost to the default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("drmsd: %d processors, control protocol on %s%s\n", *nodes, addr, mode)
	<-sig
	if *state != "" {
		check(fs.SaveFile(*state))
		fmt.Printf("\nsaved state to %s\n", *state)
	}
	fmt.Println("drmsd: shutting down")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
