package drms

import (
	"fmt"
	"strings"
	"testing"

	"drms/internal/array"
	"drms/internal/ckpt"
	"drms/internal/dist"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/seg"
)

func testFS() *pfs.System {
	return pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
}

// diffusionApp is a miniature SOQ-structured SPMD application: a 2-D
// Jacobi smoothing iteration with shadow exchange, checkpointing at its
// SOP every ckEvery iterations. It appends the final checksum to out.
//
// The update is element-wise with a fixed operand order, so the result is
// bitwise independent of the distribution — the oracle for reconfigured
// restarts.
func diffusionApp(n, iters, ckEvery int, prefix string, out chan<- float64, stopAfterCk bool) func(*Task) error {
	return func(t *Task) error {
		g := rangeset.Box([]int{0, 0}, []int{n - 1, n - 1})
		grid := dist.FactorGrid(t.Tasks(), 2, g.Shape())
		d, err := dist.Block(g, grid)
		if err != nil {
			return err
		}
		d, err = d.WithShadow([]int{1, 1})
		if err != nil {
			return err
		}
		u, err := NewArray[float64](t, "u", d)
		if err != nil {
			return err
		}
		iter := 0
		t.Register("iter", &iter)
		// Idempotent prologue (re-executed on restart, then overwritten).
		u.Fill(func(c []int) float64 { return float64(c[0]*n+c[1]) * 0.001 })

		for {
			if iter%ckEvery == 0 {
				status, delta, err := t.ReconfigCheckpoint(prefix)
				if err != nil {
					return err
				}
				if status == Restored && delta == 0 && t.Tasks() == 0 {
					return fmt.Errorf("unreachable")
				}
				if status == Continued && stopAfterCk && iter > 0 {
					return nil // simulate the run being killed mid-way
				}
			}
			if iter >= iters {
				break
			}
			if err := u.ExchangeShadows(); err != nil {
				return err
			}
			// Update only the assigned section (neighbors of assigned
			// elements lie within the width-1 shadow); halos refresh at
			// the top of the next iteration.
			next := make([]float64, u.Assigned().Size())
			i := 0
			u.Assigned().Each(rangeset.ColMajor, func(c []int) {
				next[i] = stencil(u, c, n)
				i++
			})
			i = 0
			u.Assigned().Each(rangeset.ColMajor, func(c []int) {
				u.Set(c, next[i])
				i++
			})
			iter++
		}
		if out != nil {
			sum, err := u.Checksum() // collective
			if err != nil {
				return err
			}
			if t.Rank() == 0 {
				out <- sum
			}
		}
		return nil
	}
}

func stencil(u *array.Array[float64], c []int, n int) float64 {
	v := u.At(c) * 0.5
	if c[0] > 0 {
		v += u.At([]int{c[0] - 1, c[1]}) * 0.125
	}
	if c[0] < n-1 {
		v += u.At([]int{c[0] + 1, c[1]}) * 0.125
	}
	if c[1] > 0 {
		v += u.At([]int{c[0], c[1] - 1}) * 0.125
	}
	if c[1] < n-1 {
		v += u.At([]int{c[0], c[1] + 1}) * 0.125
	}
	return v
}

// runToCompletion runs the app with no interruption and returns the
// checksum.
func runToCompletion(t *testing.T, tasks, n, iters int) float64 {
	t.Helper()
	fs := testFS()
	out := make(chan float64, 1)
	err := Run(Config{Tasks: tasks, FS: fs}, diffusionApp(n, iters, 1000000, "ck", out, false))
	if err != nil {
		t.Fatal(err)
	}
	return <-out
}

func TestCheckpointRestartEquivalence(t *testing.T) {
	const n, iters = 12, 9
	want := runToCompletion(t, 4, n, iters)

	// Run on 4 tasks, checkpoint at iteration 6, die; restart on various
	// task counts and finish. Checksums must match bitwise.
	for _, restartTasks := range []int{1, 2, 4, 6, 9} {
		restartTasks := restartTasks
		t.Run(fmt.Sprintf("restart-%d", restartTasks), func(t *testing.T) {
			fs := testFS()
			err := Run(Config{Tasks: 4, FS: fs},
				diffusionApp(n, iters, 6, "ck", nil, true)) // dies after iteration-6 checkpoint
			if err != nil {
				t.Fatal(err)
			}
			if !ckpt.Exists(fs, "ck") {
				t.Fatal("no checkpoint left behind")
			}
			out := make(chan float64, 1)
			err = Run(Config{Tasks: restartTasks, FS: fs, RestartFrom: "ck"},
				diffusionApp(n, iters, 6, "ck", out, false))
			if err != nil {
				t.Fatal(err)
			}
			if got := <-out; got != want {
				t.Fatalf("checksum after reconfigured restart on %d tasks = %v, want %v",
					restartTasks, got, want)
			}
		})
	}
}

func TestRestoreReturnsDelta(t *testing.T) {
	fs := testFS()
	if err := Run(Config{Tasks: 4, FS: fs}, diffusionApp(12, 9, 6, "ck", nil, true)); err != nil {
		t.Fatal(err)
	}
	var sawDelta int
	err := Run(Config{Tasks: 6, FS: fs, RestartFrom: "ck"}, func(t *Task) error {
		g := rangeset.Box([]int{0, 0}, []int{11, 11})
		d, _ := dist.Block(g, dist.FactorGrid(6, 2, g.Shape()))
		d, _ = d.WithShadow([]int{1, 1})
		if _, err := NewArray[float64](t, "u", d); err != nil {
			return err
		}
		iter := 0
		t.Register("iter", &iter)
		status, delta, err := t.ReconfigCheckpoint("ck")
		if err != nil {
			return err
		}
		if status != Restored {
			return fmt.Errorf("first SOP of restart returned %v", status)
		}
		if iter != 6 {
			return fmt.Errorf("iter restored to %d", iter)
		}
		if t.Rank() == 0 {
			sawDelta = delta
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawDelta != 2 {
		t.Fatalf("delta = %d, want +2", sawDelta)
	}
}

func TestSPMDModeRoundTripAndRigidity(t *testing.T) {
	fs := testFS()
	want := runToCompletion(t, 4, 12, 9)
	if err := Run(Config{Tasks: 4, FS: fs, SPMDMode: true},
		diffusionApp(12, 9, 6, "ck", nil, true)); err != nil {
		t.Fatal(err)
	}
	// Restart with a different task count is refused up front.
	_, err := Start(Config{Tasks: 2, FS: fs, RestartFrom: "ck", SPMDMode: true},
		diffusionApp(12, 9, 6, "ck", nil, false))
	if err == nil || !strings.Contains(err.Error(), "exactly") {
		t.Fatalf("reconfigured SPMD restart accepted: %v", err)
	}
	// Same task count restores fine and completes correctly.
	out := make(chan float64, 1)
	if err := Run(Config{Tasks: 4, FS: fs, RestartFrom: "ck", SPMDMode: true},
		diffusionApp(12, 9, 6, "ck", out, false)); err != nil {
		t.Fatal(err)
	}
	if got := <-out; got != want {
		t.Fatalf("SPMD restart checksum = %v, want %v", got, want)
	}
}

func TestChkEnableOnlyWhenArmed(t *testing.T) {
	fs := testFS()
	// Two channels: over one buffered channel rank 0 could take its own
	// signal back before the test saw it, and the test then waited forever.
	sops, armed := make(chan int), make(chan struct{})
	h, err := Start(Config{Tasks: 2, FS: fs}, func(t *Task) error {
		iter := 0
		t.Register("iter", &iter)
		g := rangeset.Box([]int{0}, []int{15})
		d, _ := dist.Block(g, []int{2})
		if _, err := NewArray[float64](t, "u", d); err != nil {
			return err
		}
		for iter = 0; iter < 50; iter++ {
			if _, _, err := t.ReconfigChkEnable("sysck"); err != nil {
				return err
			}
			if t.Rank() == 0 && iter == 25 {
				sops <- iter // signal the "system" half-way
				<-armed      // wait for it to arm
			}
			if err := t.Comm().Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-sops
	if ckpt.Exists(fs, "sysck") {
		t.Fatal("checkpoint taken before system armed it")
	}
	h.EnableCheckpoint()
	close(armed)
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if !ckpt.Exists(fs, "sysck") {
		t.Fatal("armed checkpoint never taken")
	}
	p, ok := ckpt.Resolve(fs, "sysck")
	if !ok {
		t.Fatal("no committed checkpoint under sysck")
	}
	m, err := ckpt.ReadMeta(fs, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ctx.Step != 0 && m.Tasks != 2 {
		t.Fatalf("meta = %+v", m)
	}
}

func TestStopRequested(t *testing.T) {
	fs := testFS()
	h, err := Start(Config{Tasks: 3, FS: fs}, func(t *Task) error {
		iter := 0
		t.Register("iter", &iter)
		for {
			if err := t.Comm().Barrier(); err != nil {
				return err
			}
			if t.StopRequested() {
				return nil
			}
			iter++
			if iter > 1_000_000 {
				return fmt.Errorf("stop request never observed")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	h.RequestStop()
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestStartValidatesConfig(t *testing.T) {
	if _, err := Start(Config{Tasks: 0, FS: testFS()}, nil); err == nil {
		t.Fatal("0 tasks accepted")
	}
	if _, err := Start(Config{Tasks: 1}, nil); err == nil {
		t.Fatal("nil FS accepted")
	}
	if _, err := Start(Config{Tasks: 1, FS: testFS(), RestartFrom: "missing"}, nil); err == nil {
		t.Fatal("missing restart checkpoint accepted")
	}
}

func TestAppErrorPropagates(t *testing.T) {
	err := Run(Config{Tasks: 2, FS: testFS()}, func(t *Task) error {
		if t.Rank() == 1 {
			return fmt.Errorf("task-level failure")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "task-level failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestNewArrayRedeclarationReplacesHandle(t *testing.T) {
	fs := testFS()
	err := Run(Config{Tasks: 2, FS: fs}, func(t *Task) error {
		g := rangeset.Box([]int{0}, []int{9})
		d1, _ := dist.Block(g, []int{2})
		u1, err := NewArray[float64](t, "u", d1)
		if err != nil {
			return err
		}
		u1.Fill(func(c []int) float64 { return float64(c[0]) })
		// Redistribute and re-declare under the same name.
		d2, _ := dist.BlockCyclic(g, []int{2}, []int{1})
		u2, err := u1.Redistribute(d2)
		if err != nil {
			return err
		}
		if _, err := NewArray[float64](t, "u", u2.Dist()); err != nil {
			return err
		}
		// Checkpoint must contain exactly one array named u.
		iter := 0
		t.Register("iter", &iter)
		if _, _, err := t.ReconfigCheckpoint("ck"); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := ckpt.Resolve(fs, "ck")
	if !ok {
		t.Fatal("no committed checkpoint under ck")
	}
	m, err := ckpt.ReadMeta(fs, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Arrays) != 1 || m.Arrays[0].Name != "u" {
		t.Fatalf("arrays = %+v", m.Arrays)
	}
}

func TestRunOverTCPTransport(t *testing.T) {
	fs := testFS()
	out := make(chan float64, 1)
	if err := Run(Config{Tasks: 3, FS: fs, TCP: true},
		diffusionApp(8, 4, 100, "ck", out, false)); err != nil {
		t.Fatal(err)
	}
	wantOut := make(chan float64, 1)
	if err := Run(Config{Tasks: 2, FS: testFS()},
		diffusionApp(8, 4, 100, "ck", wantOut, false)); err != nil {
		t.Fatal(err)
	}
	if got, want := <-out, <-wantOut; got != want {
		t.Fatalf("TCP run checksum %v != local %v", got, want)
	}
}

func TestSegmentModelSurvivesCheckpoint(t *testing.T) {
	fs := testFS()
	err := Run(Config{Tasks: 2, FS: fs}, func(t *Task) error {
		g := rangeset.Box([]int{0}, []int{63})
		d, _ := dist.Block(g, []int{2})
		if _, err := NewArray[float64](t, "u", d); err != nil {
			return err
		}
		iter := 0
		t.Register("iter", &iter)
		t.Segment().Model = seg.SizeModel{SystemBytes: 123456, PrivateBytes: 111}
		_, _, err := t.ReconfigCheckpoint("ck")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := ckpt.Resolve(fs, "ck")
	if !ok {
		t.Fatal("no committed checkpoint under ck")
	}
	sz, err := fs.Size(p + ".seg")
	if err != nil {
		t.Fatal(err)
	}
	if sz != 123456+111 {
		t.Fatalf("segment file = %d, want modeled size", sz)
	}
}

func TestIncrementalDeltaLifecycle(t *testing.T) {
	fs := testFS()
	const n, iters = 12, 6
	want := runToCompletion(t, 4, n, iters)

	// Same diffusion app, but checkpointing incrementally — a chained
	// delta generation — at each SOP.
	incApp := func(out chan float64) func(*Task) error {
		return func(tk *Task) error {
			g := rangeset.Box([]int{0, 0}, []int{n - 1, n - 1})
			d, err := dist.Block(g, dist.FactorGrid(tk.Tasks(), 2, g.Shape()))
			if err != nil {
				return err
			}
			if d, err = d.WithShadow([]int{1, 1}); err != nil {
				return err
			}
			u, err := NewArray[float64](tk, "u", d)
			if err != nil {
				return err
			}
			iter := 0
			tk.Register("iter", &iter)
			u.Fill(func(c []int) float64 { return float64(c[0]*n+c[1]) * 0.001 })
			for {
				if _, _, err := tk.ReconfigCheckpoint("inc"); err != nil {
					return err
				}
				if iter >= iters {
					break
				}
				if err := u.ExchangeShadows(); err != nil {
					return err
				}
				next := make([]float64, u.Assigned().Size())
				i := 0
				u.Assigned().Each(rangeset.ColMajor, func(c []int) {
					next[i] = stencil(u, c, n)
					i++
				})
				i = 0
				u.Assigned().Each(rangeset.ColMajor, func(c []int) {
					u.Set(c, next[i])
					i++
				})
				iter++
			}
			if out != nil {
				s, err := u.Checksum()
				if err != nil {
					return err
				}
				if tk.Rank() == 0 {
					out <- s
				}
			}
			return nil
		}
	}
	if err := Run(Config{Tasks: 4, FS: fs, AnchorEvery: 4, Codec: ckpt.CodecRaw}, incApp(nil)); err != nil {
		t.Fatal(err)
	}
	p, ok := ckpt.Resolve(fs, "inc")
	if !ok {
		t.Fatal("no incremental checkpoint")
	}
	if m, err := ckpt.ReadMeta(fs, p, 0); err != nil || m.ChainLen == 0 {
		t.Fatalf("newest generation %q is not a delta: len %d (err %v)", p, m.ChainLen, err)
	}
	if err := ckpt.Verify(fs, "inc", 0); err != nil {
		t.Fatalf("incremental checkpoint invalid: %v", err)
	}
	// Restart (reconfigured) from the incrementally maintained state.
	out := make(chan float64, 1)
	if err := Run(Config{Tasks: 6, FS: fs, RestartFrom: "inc"}, incApp(out)); err != nil {
		t.Fatal(err)
	}
	if got := <-out; got != want {
		t.Fatalf("incremental restart checksum %v != %v", got, want)
	}
}

func TestDeclareFromSpec(t *testing.T) {
	fs := testFS()
	const decl = `
# state of a small solver
array u float64 shape (16, 16) distribute (block, block) shadow (1, 1)
array ids int32 shape (64) distribute (cyclic(4))
`
	err := Run(Config{Tasks: 4, FS: fs}, func(tk *Task) error {
		d, err := DeclareFromSpec(tk, decl)
		if err != nil {
			return err
		}
		u, err := Get[float64](d, "u")
		if err != nil {
			return err
		}
		ids, err := Get[int32](d, "ids")
		if err != nil {
			return err
		}
		// Wrong-type and unknown-name access fail cleanly.
		if _, err := Get[float32](d, "u"); err == nil {
			return fmt.Errorf("wrong-typed access succeeded")
		}
		if _, err := Get[float64](d, "ghost"); err == nil {
			return fmt.Errorf("unknown array access succeeded")
		}
		if s, ok := d.Spec("u"); !ok || s.Shadow[0] != 1 {
			return fmt.Errorf("spec lookup failed: %+v", s)
		}
		u.Fill(func(c []int) float64 { return float64(c[0]*16 + c[1]) })
		ids.Fill(func(c []int) int32 { return int32(c[0]) })
		iter := 0
		tk.Register("iter", &iter)
		// Declared arrays checkpoint like hand-declared ones.
		if _, _, err := tk.ReconfigCheckpoint("spec-ck"); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reconfigured restart through the same declarations.
	err = Run(Config{Tasks: 6, FS: fs, RestartFrom: "spec-ck"}, func(tk *Task) error {
		d, err := DeclareFromSpec(tk, decl)
		if err != nil {
			return err
		}
		iter := 0
		tk.Register("iter", &iter)
		status, _, err := tk.ReconfigCheckpoint("spec-ck2")
		if err != nil {
			return err
		}
		if status != Restored {
			return fmt.Errorf("status %v", status)
		}
		u, err := Get[float64](d, "u")
		if err != nil {
			return err
		}
		u.Mapped().Each(rangeset.ColMajor, func(c []int) {
			if u.At(c) != float64(c[0]*16+c[1]) {
				panic("spec-declared array not restored")
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeclareFromSpecBadInput(t *testing.T) {
	err := Run(Config{Tasks: 2, FS: testFS()}, func(tk *Task) error {
		if _, err := DeclareFromSpec(tk, "array ! nope"); err == nil {
			return fmt.Errorf("bad spec accepted")
		}
		// Valid parse but undistributable on 2 tasks.
		if _, err := DeclareFromSpec(tk, "array r float64 shape (8) distribute (*)"); err == nil {
			return fmt.Errorf("collapsed array on 2 tasks accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKeepAndCommittedGen runs with Keep=2, checkpointing three times, and
// checks (a) the rotation retains exactly the two newest generations,
// (b) the handle reports the newest committed generation upward — the
// signal the recovery supervisor uses to tell progress from livelock.
func TestKeepAndCommittedGen(t *testing.T) {
	fs := testFS()
	h, err := Start(Config{Tasks: 2, FS: fs, Keep: 2}, func(tk *Task) error {
		iter := 0
		tk.Register("iter", &iter)
		g := rangeset.Box([]int{0}, []int{7})
		d, _ := dist.Block(g, []int{2})
		u, _ := NewArray[float64](tk, "u", d)
		u.Fill(func(c []int) float64 { return float64(c[0]) })
		for iter = 0; iter < 3; iter++ {
			if _, _, err := tk.ReconfigCheckpoint("ck"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.CommittedGen(); ok {
		t.Fatal("CommittedGen reported a generation before any checkpoint")
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	gens := (ckpt.Rotation{Base: "ck", Keep: 2}).Generations(fs)
	if len(gens) != 2 || gens[0] != "ck.g1" || gens[1] != "ck.g2" {
		t.Fatalf("generations after Keep=2 run: %v", gens)
	}
	g, ok := h.CommittedGen()
	if !ok || g != 2 {
		t.Fatalf("CommittedGen = %d ok=%v, want 2", g, ok)
	}
}

// TestRestartFromPinnedGeneration restarts from an explicitly pinned
// older generation ("ck.gN") rather than the newest, and checks the run
// resumes from that state — the fallback path the recovery supervisor
// takes when the newest generation is quarantined.
func TestRestartFromPinnedGeneration(t *testing.T) {
	fs := testFS()
	if err := Run(Config{Tasks: 2, FS: fs, Keep: 3}, func(tk *Task) error {
		iter := 0
		tk.Register("iter", &iter)
		g := rangeset.Box([]int{0}, []int{7})
		d, _ := dist.Block(g, []int{2})
		u, _ := NewArray[float64](tk, "u", d)
		u.Fill(func(c []int) float64 { return float64(c[0]) })
		for iter = 10; iter < 13; iter++ {
			if _, _, err := tk.ReconfigCheckpoint("ck"); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Three generations committed with iter = 10, 11, 12. Pin the middle.
	var restored int
	h, err := Start(Config{Tasks: 3, FS: fs, RestartFrom: "ck.g1", Verify: true},
		func(tk *Task) error {
			iter := 0
			tk.Register("iter", &iter)
			g := rangeset.Box([]int{0}, []int{7})
			d, _ := dist.Block(g, []int{3})
			if _, err := NewArray[float64](tk, "u", d); err != nil {
				return err
			}
			status, _, err := tk.ReconfigCheckpoint("ck")
			if err != nil {
				return err
			}
			if status != Restored {
				return fmt.Errorf("pinned restart status %v", status)
			}
			if tk.Rank() == 0 {
				restored = iter
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if restored != 11 {
		t.Fatalf("pinned restart restored iter=%d, want 11 (generation g1)", restored)
	}
	if g, ok := h.CommittedGen(); !ok || g != 1 {
		t.Fatalf("CommittedGen after pinned restore = %d ok=%v, want 1", g, ok)
	}
	// Pinning must not clean or disturb sibling generations.
	for _, p := range []string{"ck.g0", "ck.g1", "ck.g2"} {
		if !ckpt.Exists(fs, p) {
			t.Fatalf("pinned restart disturbed sibling generation %s", p)
		}
	}
}

// TestGenHeaderRoundTrip: the per-SOP header frame decodes to what was
// encoded — every flag combination, an empty and a set Prev, Resize zero,
// positive and negative — and a truncated or padded frame is an error.
func TestGenHeaderRoundTrip(t *testing.T) {
	for flags := 0; flags < 8; flags++ {
		for _, prev := range []string{"", "ck.g6"} {
			for _, resize := range []int{0, 3, -1, 1 << 40} {
				h := genHeader{Gen: "ck.g7", Prev: prev, Delta: flags&1 != 0, Mem: flags&2 != 0,
					Stop: flags&4 != 0, Resize: resize}
				b := h.encode()
				got, err := decodeGenHeader(b)
				if err != nil || got != h {
					t.Fatalf("decode(encode(%+v)) = %+v, %v", h, got, err)
				}
				for n := 0; n < len(b); n++ {
					if _, err := decodeGenHeader(b[:n]); err == nil {
						t.Fatalf("%+v truncated to %d of %d bytes decoded", h, n, len(b))
					}
				}
				if _, err := decodeGenHeader(append(b, 0)); err == nil {
					t.Fatalf("%+v with a trailing byte decoded", h)
				}
			}
		}
	}
	if got, err := decodeGenHeader(genHeader{}.encode()); err != nil || got != (genHeader{}) {
		t.Fatalf("zero header round trip = %+v, %v", got, err)
	}
	// The bytes every earlier build broadcast: two length-prefixed names, the
	// flags byte (Delta|Stop) and Resize -1 as a zigzag varint.
	if b := (genHeader{Gen: "ck.g7", Prev: "ck.g6", Delta: true, Stop: true, Resize: -1}).encode(); string(b) != "\x05ck.g7\x05ck.g6\x05\x01" {
		t.Fatalf("header frame %q", b)
	}
}
