package main

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"drms/internal/msg"
)

// A 4-rank AllreduceF64 is a gather of three 8-byte values at rank 0 and
// a binomial-tree broadcast of the result (0->1, 0->2, 1->3): six sends,
// 48 bytes, six receives.
func TestCountingTransportCountsAnAllreduce(t *testing.T) {
	ct := newCountingTransport(4)
	err := spmd(4, ct, func(c *msg.Comm) error {
		got, err := c.AllreduceF64(float64(c.Rank()), msg.Sum)
		if err == nil && got != 6 {
			t.Errorf("rank %d: sum %v, want 6", c.Rank(), got)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got := ct.total()
	if got.sends != 6 || got.bytes != 48 {
		t.Errorf("counted %d sends, %d bytes; want 6 sends, 48 bytes", got.sends, got.bytes)
	}
	if got.recvWait <= 0 {
		t.Errorf("no receive wait recorded")
	}
}

func TestSpmdReturnsTheFirstErrorAndUnblocksPeers(t *testing.T) {
	err := spmd(3, msg.NewLocalTransport(3), func(c *msg.Comm) error {
		if c.Rank() == 2 {
			return msg.ErrKilled
		}
		return c.Barrier() // would hang without the abort
	})
	if err == nil {
		t.Fatal("no error")
	}
}

func TestTicketRoundTrip(t *testing.T) {
	in := ticket{kind: tkResize, seed: 0xfeedface12345678}
	out, err := decodeTicket(in.encode())
	if err != nil || out != in {
		t.Fatalf("decoded %+v, %v", out, err)
	}
	if _, err := decodeTicket([]byte{1}); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := newTracer()
	add := func(id, parent, start, end int64, name string) {
		tr.spans = append(tr.spans, &span{ID: id, Parent: parent, Start: start, End: end, Name: name, tr: tr})
	}
	add(1, 0, 0, 100, "op")
	add(2, 1, 10, 40, "child")
	add(3, 1, 30, 60, "child") // overlaps the first: the union is 10..60
	add(4, 1, 90, 120, "late") // clipped to the parent's end
	self := tr.selfTimes()
	if self["op"] != 40 {
		t.Errorf("self time %d, want 100 - 50 - 10 = 40", self["op"])
	}
	if self["child"] != 60 || self["late"] != 30 {
		t.Errorf("leaf self times %v", self)
	}
}

// liveGoroutines counts goroutines, leaving out the one kind the program
// under test is known to leak: coord.ControlServer.Serve starts an event
// drain that ranges over a channel nothing ever closes, so every served
// ControlServer (one per traced coord-recover run) leaves one behind.
// That is internal/coord's to fix; everything else must be gone.
func liveGoroutines() (int, string) {
	buf := make([]byte, 1<<20)
	dump := string(buf[:runtime.Stack(buf, true)])
	n := 0
	for _, g := range strings.Split(dump, "\n\n") {
		if !strings.Contains(g, "coord.(*ControlServer).Serve.func1") {
			n++
		}
	}
	return n, dump
}

// settleGoroutines waits for the goroutine count to come back to the
// baseline: teardown waits for the application, but the coordinator's
// per-connection goroutines exit a moment after their sockets close.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, dump := liveGoroutines()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the run:\n%s", n, base, dump)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Every workload, at a size and time box small enough for the unit test
// run: no operation fails, every restored state matches its oracle, every
// metric of the mode is reported, and nothing the run started outlives it.
func TestSmokeEveryWorkload(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	small := buildWorkloads(8, 1<<12, 2)
	for _, w := range small {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				base, _ := liveGoroutines()
				res, err := runWorkload(w, runOptions{seed: 42, seconds: 0.01, traced: traced, setups: 2, minCycles: 3})
				if err != nil {
					t.Fatal(err)
				}
				s := res.samples
				if s.cycles < 3 || len(s.ckpt) != steadyPerCycle*s.cycles || len(s.recovery) != s.cycles {
					t.Errorf("%d cycles, %d checkpoint and %d recovery samples", s.cycles, len(s.ckpt), len(s.recovery))
				}
				// Two set-ups up front, and a fresh one for every further block.
				want := 2
				if w.block > 0 {
					want += (s.cycles - 1) / w.block
				}
				if len(s.setups) != want {
					t.Errorf("%d set-ups for %d cycles, want %d", len(s.setups), s.cycles, want)
				}
				if !traced {
					for _, m := range endToEndMetrics {
						if v, ok := res.metrics[m.name]; !ok || !(v > 0) {
							t.Errorf("%s = %v", m.name, v)
						}
					}
				} else {
					for _, m := range []string{"rangeset.equal_ns", "array.assign_warm_mb_s", "msg.ops_per_ckpt",
						"stream.write_mb_s", "codec.ratio", "pfs.write_mb_s", "ckpt.write_ms", "ckpt.read_ms",
						"ckpt.meta_bytes", "drms.launch_ms", "obs.series", "proc.mallocs_per_cycle"} {
						if !(res.metrics[m] > 0) {
							t.Errorf("%s = %v", m, res.metrics[m])
						}
					}
					if w.hot && res.metrics["ckpt.tier_pfs_bytes_per_restore"] != 0 {
						t.Errorf("hot workload restored %v bytes from the pfs", res.metrics["ckpt.tier_pfs_bytes_per_restore"])
					}
					if w.recovery == recCoord && !(res.metrics["coord.rc_recover_ms"] > 0) {
						t.Errorf("no coordinator recovery timed")
					}
					path := filepath.Join(t.TempDir(), "trace.json")
					if err := res.trace.writeTo(path); err != nil {
						t.Error(err)
					}
					if self := res.trace.selfTimes(); self["probes"] < 0 || len(self) < 5 {
						t.Errorf("span self times %v", self)
					}
				}
				settleGoroutines(t, base)
			})
		}
	}
}

// The same seed must give byte-identical counts: they are properties of
// the inputs and the code, not of the machine.
func TestCountsRepeatForASeed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	w := buildWorkloads(8, 1<<12, 2)[1] // sparse-chain: deltas, codec, verify
	var first map[string]float64
	for i := 0; i < 2; i++ {
		res, err := runWorkload(w, runOptions{seed: 7, seconds: 0.01, traced: true, setups: 1, minCycles: 3})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res.metrics
			continue
		}
		for _, m := range perLayerMetrics {
			if m.exact && res.metrics[m.name] != first[m.name] {
				t.Errorf("%s: %v then %v", m.name, first[m.name], res.metrics[m.name])
			}
		}
	}
}
