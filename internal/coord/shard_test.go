package coord

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drms/internal/pfs"
)

func TestShardOfDeterministicAndCovering(t *testing.T) {
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("tenant%d/app%d", i%7, i)
		s := ShardOf(name, 3)
		if s < 0 || s > 2 {
			t.Fatalf("ShardOf(%q, 3) = %d out of range", name, s)
		}
		if s != ShardOf(name, 3) {
			t.Fatalf("ShardOf(%q, 3) not deterministic", name)
		}
	}
	if ShardOf("anything", 1) != 0 || ShardOf("anything", 0) != 0 {
		t.Fatal("a solo fleet owns everything")
	}
	var counts [2]int
	for i := 0; i < 64; i++ {
		counts[ShardOf(fmt.Sprintf("spread/%d", i), 2)]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("hash never reached one shard: %v", counts)
	}
}

// shardNamer hands out application names owned by a requested shard (the
// shard map is a pure hash, so tests search for names instead of
// assuming them).
func shardNamer(shards int) func(shard int, tenant string) string {
	seq := 0
	return func(shard int, tenant string) string {
		for ; ; seq++ {
			n := fmt.Sprintf("%s/j%d", tenant, seq)
			if ShardOf(n, shards) == shard {
				seq++
				return n
			}
		}
	}
}

// TestQuotaAtomicUnderConcurrentSubmits is the regression test for the
// admission quota's atomicity: the count and the enqueue happen under
// one lock in the JSA, so a burst of concurrent submits for one tenant
// must admit exactly quota-many jobs — no check-then-act window lets two
// racers both pass.
func TestQuotaAtomicUnderConcurrentSubmits(t *testing.T) {
	_, rc, _ := newCluster(t, 1)
	jsa := NewJSA(rc)
	var gate atomic.Bool
	var admitted atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			p := appParams{n: 8, iters: 6, ckEvery: 3, gateAt: 2, gate: &gate}
			spec := p.spec(fmt.Sprintf("acme/racer%d", g))
			if err := jsa.SubmitQuota(Job{Spec: spec, Min: 1, Max: 1}, 1); err == nil {
				admitted.Add(1)
			} else if !strings.Contains(err.Error(), "quota") {
				t.Errorf("unexpected submit error: %v", err)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if n := admitted.Load(); n != 1 {
		t.Fatalf("%d concurrent submits passed a quota of 1", n)
	}
	// Settle the one admitted application cleanly.
	gate.Store(true)
	for _, info := range rc.Apps() {
		if st, err := rc.WaitApp(info.Name); err != nil || st != StatusFinished {
			t.Fatalf("%s settled %s, %v", info.Name, st, err)
		}
	}
}

// gatewayFleet brings up shards coordinators, each owning processors s
// and s+shards (the drmsd slicing) and serving the control protocol with
// the given admission quota, fronted by one gateway; it returns a client
// connected to the gateway.
func gatewayFleet(t *testing.T, shards, quota int) *ControlClient {
	t.Helper()
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	addrs := make([]string, shards)
	for s := 0; s < shards; s++ {
		rc, err := NewRCOpts(fs, RCOptions{HBTimeout: hbTimeout, Shard: s, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rc.Close)
		tcs, err := PoolNodes(rc, []int{s, s + shards}, hbInterval, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		stopOnCleanup(t, tcs...)
		srv := &ControlServer{RC: rc, JSA: NewJSA(rc), Quota: quota, Shard: s}
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		addrs[s] = addr
	}
	gw, err := NewGateway(addrs)
	if err != nil {
		t.Fatal(err)
	}
	gaddr, err := gw.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	cl, err := DialControl(gaddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestGatewayRoutesAcrossShardsWithQuota brings up a two-shard fleet
// behind a gateway and drives the acceptance flow over the wire: named
// ops land on the owning shard (the response says which), fleet-wide
// reads merge both shards, per-tenant admission quotas bind at the
// owning shard only, and the versioned mutation protocol round-trips
// through the gateway including a stale rejection.
func TestGatewayRoutesAcrossShardsWithQuota(t *testing.T) {
	const shards = 2
	cl := gatewayFleet(t, shards, 1)

	// Fleet-wide read: the free pool is the union of the shard slices.
	resp, err := cl.Do(Request{Op: "nodes"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Nodes) != 2*shards {
		t.Fatalf("fleet nodes = %v, want all %d", resp.Nodes, 2*shards)
	}

	// One tenant, one application per shard: both admitted, each served
	// by its owning shard.
	nameFor := shardNamer(shards)
	a0 := nameFor(0, "acme")
	a1 := nameFor(1, "acme")
	for _, name := range []string{a0, a1} {
		resp, err := cl.Do(Request{Op: "submit", Name: name, Kernel: "bt",
			Class: "S", Min: 1, Max: 1, Iters: 100000, CkEvery: 5})
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		if want := ShardOf(name, shards); resp.Shard != want {
			t.Fatalf("submit %s served by shard %d, want %d", name, resp.Shard, want)
		}
	}
	for _, name := range []string{a0, a1} {
		name := name
		waitFor(t, name+" running", func() bool {
			resp, err := cl.Do(Request{Op: "status", Name: name})
			return err == nil && resp.App.Status == StatusRunning
		})
	}

	// The tenant is at quota on shard 0; a third acme application owned
	// there must be rejected — by shard 0, relayed verbatim.
	quotaBefore := metric("drms_coord_quota_rejections_total")
	rej, err := cl.DoRaw(Request{Op: "submit", Name: nameFor(0, "acme"), Kernel: "bt",
		Class: "S", Min: 1, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rej.OK || !strings.Contains(rej.Error, "quota") || rej.Shard != 0 {
		t.Fatalf("over-quota submit: %+v", rej)
	}
	if d := metric("drms_coord_quota_rejections_total") - quotaBefore; d != 1 {
		t.Fatalf("quota rejection counter moved by %v, want 1", d)
	}
	// Quotas are per tenant: another tenant still fits on shard 0.
	z0 := nameFor(0, "zed")
	if _, err := cl.Do(Request{Op: "submit", Name: z0, Kernel: "lu",
		Class: "S", Min: 1, Max: 1, Iters: 10, CkEvery: 5}); err != nil {
		t.Fatalf("other tenant blocked by acme's quota: %v", err)
	}

	// Fleet-wide apps view merges both shards, sorted by name.
	waitFor(t, "fleet apps view to show all three", func() bool {
		resp, err := cl.Do(Request{Op: "apps"})
		if err != nil {
			return false
		}
		names := make([]string, len(resp.Apps))
		for i, a := range resp.Apps {
			names[i] = a.Name
		}
		sorted := true
		for i := 1; i < len(names); i++ {
			sorted = sorted && names[i-1] <= names[i]
		}
		has := func(n string) bool {
			for _, x := range names {
				if x == n {
					return true
				}
			}
			return false
		}
		return sorted && has(a0) && has(a1) && has(z0)
	})

	// The versioned protocol through the gateway: open, reject a stale
	// mutation, then chain checkpoint and stop on the returned versions.
	open, err := cl.Do(Request{Op: "open", Name: a0})
	if err != nil {
		t.Fatal(err)
	}
	if open.Shard != ShardOf(a0, shards) || open.Version == 0 {
		t.Fatalf("open reply: %+v", open)
	}
	stale, err := cl.DoRaw(Request{Op: "checkpoint", Name: a0, Version: open.Version + 99})
	if err != nil {
		t.Fatal(err)
	}
	if stale.OK || !strings.Contains(stale.Error, "stale") {
		t.Fatalf("stale checkpoint through the gateway: %+v", stale)
	}
	ck, err := cl.Do(Request{Op: "checkpoint", Name: a0, Version: open.Version})
	if err != nil {
		t.Fatal(err)
	}
	if ck.Version <= open.Version {
		t.Fatalf("checkpoint did not advance the version: %d -> %d", open.Version, ck.Version)
	}
	if _, err := cl.Do(Request{Op: "stop", Name: a0, Version: ck.Version}); err != nil {
		t.Fatal(err)
	}
	if _, err := mutate(cl, Request{Op: "stop", Name: a1}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{a0, a1} {
		st, err := cl.WaitStatus(name, 30*time.Second)
		if err != nil || st != StatusFinished {
			t.Fatalf("%s settled %s, %v", name, st, err)
		}
	}
}

// TestGatewayRoutesResize resizes an application in flight through a
// two-shard gateway. The gateway used to forward a hand-kept list of
// named ops that never gained "resize", so the request died there as an
// unknown op; every op that names an application now reaches its owner.
func TestGatewayRoutesResize(t *testing.T) {
	const shards = 2
	cl := gatewayFleet(t, shards, 0)
	name := shardNamer(shards)(1, "acme")
	if _, err := cl.Do(Request{Op: "submit", Name: name, Kernel: "bt",
		Class: "S", Min: 1, Max: 1, Iters: 100000, CkEvery: 2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, name+" running", func() bool {
		resp, err := cl.Do(Request{Op: "status", Name: name})
		return err == nil && resp.App.Status == StatusRunning
	})
	resp, err := mutate(cl, Request{Op: "resize", Name: name, Tasks: 2})
	if err != nil {
		t.Fatalf("resize through the gateway: %v", err)
	}
	if resp.Shard != 1 || resp.Version == 0 {
		t.Fatalf("resize reply: %+v", resp)
	}
	st, err := cl.Do(Request{Op: "status", Name: name})
	if err != nil || st.App.Tasks != 2 || st.App.Incarnation != 0 {
		t.Fatalf("after the resize: %+v, %v", st.App, err)
	}
	if _, err := mutate(cl, Request{Op: "stop", Name: name}); err != nil {
		t.Fatal(err)
	}
	if st, err := cl.WaitStatus(name, 30*time.Second); err != nil || st != StatusFinished {
		t.Fatalf("%s settled %s, %v", name, st, err)
	}
}
