package apps

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"drms/internal/drms"
	"drms/internal/pfs"
	"drms/internal/rangeset"
)

func testFS() *pfs.System {
	return pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 4096})
}

func runClean(t *testing.T, k *Kernel, tasks, iters int) float64 {
	t.Helper()
	out := make(chan float64, 1)
	err := drms.Run(drms.Config{Tasks: tasks, FS: testFS()},
		k.App(RunConfig{Class: ClassS, Iters: iters, OnDone: out}))
	if err != nil {
		t.Fatalf("%s: %v", k.Name, err)
	}
	return <-out
}

func TestKernelsRunAndProduceFiniteChecksums(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			s := runClean(t, k, 4, 3)
			if s != s || s == 0 { // NaN or trivially zero
				t.Fatalf("checksum = %v", s)
			}
		})
	}
}

func TestChecksumIndependentOfTaskCount(t *testing.T) {
	// The numerics are element-wise with fixed operand order, so any task
	// count must produce the bitwise-identical result.
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			want := runClean(t, k, 1, 3)
			for _, tasks := range []int{2, 4, 8} {
				if got := runClean(t, k, tasks, 3); got != want {
					t.Fatalf("%d tasks: checksum %v != 1-task %v", tasks, got, want)
				}
			}
		})
	}
}

func TestChecksumEvolves(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			s1 := runClean(t, k, 2, 1)
			s3 := runClean(t, k, 2, 3)
			if s1 == s3 {
				t.Fatalf("iteration has no effect: %v", s1)
			}
		})
	}
}

func TestReconfiguredRestartMidRun(t *testing.T) {
	// The paper's experiment: checkpoint at mid-point, restart on a
	// different partition, results must match an uninterrupted run.
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			const iters, ckAt = 6, 3
			want := runClean(t, k, 4, iters)

			fs := testFS()
			// Run to the mid-point checkpoint, then stop (simulated kill).
			h, err := drms.Start(drms.Config{Tasks: 4, FS: fs},
				k.App(RunConfig{Class: ClassS, Iters: iters, CkEvery: ckAt, Prefix: "ck",
					OnStep: func(iter int) {}}))
			if err != nil {
				t.Fatal(err)
			}
			// Let it finish; we restart from the mid-point state anyway.
			if err := h.Wait(); err != nil {
				t.Fatal(err)
			}

			for _, tasks := range []int{2, 6, 8} {
				out := make(chan float64, 1)
				err := drms.Run(drms.Config{Tasks: tasks, FS: fs, RestartFrom: "ck"},
					k.App(RunConfig{Class: ClassS, Iters: iters, CkEvery: ckAt, Prefix: "ck2", OnDone: out}))
				if err != nil {
					t.Fatalf("restart on %d: %v", tasks, err)
				}
				if got := <-out; got != want {
					t.Fatalf("restart on %d tasks: checksum %v != clean %v", tasks, got, want)
				}
			}
		})
	}
}

func TestTable3SizeRelations(t *testing.T) {
	// Qualitative relations from Table 3 that must hold in our ports:
	// BT has the largest array state, LU the smallest; LU has the largest
	// data segment (huge private storage).
	bt, _ := BT().ArrayBytes(ClassA)
	lu, _ := LU().ArrayBytes(ClassA)
	sp, _ := SP().ArrayBytes(ClassA)
	if !(bt > sp && sp > lu) {
		t.Fatalf("array sizes: bt=%d sp=%d lu=%d, want bt > sp > lu", bt, sp, lu)
	}
	// Paper: BT 84 MB, LU 34 MB, SP 48 MB (class A). Ours must be within
	// 10% of those (we chose component counts to match).
	paper := map[string]float64{"bt": 84, "lu": 34, "sp": 48}
	got := map[string]float64{
		"bt": float64(bt) / (1 << 20),
		"lu": float64(lu) / (1 << 20),
		"sp": float64(sp) / (1 << 20),
	}
	for app, want := range paper {
		if ratio := got[app] / want; ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s arrays = %.1f MB, paper %v MB", app, got[app], want)
		}
	}
	// Private bytes: LU dominates (Table 4).
	lp, _ := LU().PrivateBytes(ClassA)
	bp, _ := BT().PrivateBytes(ClassA)
	if lp < 5*bp {
		t.Fatalf("LU private %d not dominant over BT %d", lp, bp)
	}
}

func TestSegmentModelMatchesTable4Shape(t *testing.T) {
	// Instantiate each kernel on 4 tasks (the minimum partition, which the
	// paper's compile-time sizes correspond to) and compare the modeled
	// data segment to Table 4 within tolerance.
	paper := map[string]struct{ total, local float64 }{
		"bt": {65_982_468, 25_635_456},
		"lu": {89_169_924, 10_061_824},
		"sp": {55_242_756, 14_648_832},
	}
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			var localBytes, totalBytes int64
			err := drms.Run(drms.Config{Tasks: 4, FS: testFS()}, func(tk *drms.Task) error {
				if _, err := k.Setup(tk, ClassA); err != nil {
					return err
				}
				if tk.Rank() == 0 {
					localBytes = tk.Segment().Model.LocalSectionBytes
					totalBytes = tk.Segment().Model.Total()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := paper[k.Name]
			if r := float64(localBytes) / want.local; r < 0.75 || r > 1.25 {
				t.Errorf("local sections = %d, paper %v (ratio %.2f)", localBytes, want.local, r)
			}
			if r := float64(totalBytes) / want.total; r < 0.85 || r > 1.15 {
				t.Errorf("segment total = %d, paper %v (ratio %.2f)", totalBytes, want.total, r)
			}
			// Local sections exceed 1/4 of the arrays: shadow overhead.
			arr, _ := k.ArrayBytes(ClassA)
			if localBytes <= arr/4 {
				t.Errorf("local sections %d show no shadow overhead over %d/4", localBytes, arr)
			}
		})
	}
}

func TestGridSizes(t *testing.T) {
	for _, c := range []struct {
		class Class
		n     int
	}{{ClassS, 12}, {ClassW, 24}, {ClassA, 64}, {ClassB, 102}} {
		if n, err := GridSize(c.class); err != nil || n != c.n {
			t.Errorf("GridSize(%c) = %d, %v", c.class, n, err)
		}
	}
	if _, err := GridSize(Class('X')); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"bt", "lu", "sp"} {
		k, err := ByName(n)
		if err != nil || k.Name != n {
			t.Errorf("ByName(%q) = %v, %v", n, k, err)
		}
	}
	if _, err := ByName("cg"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestTable1CountsArePlausible(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.TotalLines < 50 {
			t.Errorf("%s: implausible total %d", r.App, r.TotalLines)
		}
		if r.DRMSLines < 3 {
			t.Errorf("%s: no DRMS API lines found (%d)", r.App, r.DRMSLines)
		}
		// The paper's point: the port touches a small fraction of the
		// source. Our numerics are much smaller than a real NPB code, so
		// allow up to 25%.
		if frac := float64(r.DRMSLines) / float64(r.TotalLines); frac > 0.25 {
			t.Errorf("%s: DRMS lines are %.0f%% of source", r.App, frac*100)
		}
	}
}

func TestDecomposeShadowOnlyOnSplitAxes(t *testing.T) {
	d, err := Decompose(5, 16, 4, true) // grid 1x2x2x1 or similar
	if err != nil {
		t.Fatal(err)
	}
	grid := d.Grid()
	sh := d.Shadow()
	if sh[0] != 0 {
		t.Fatal("component axis must not be shadowed")
	}
	for ax := 1; ax < 4; ax++ {
		if grid[ax] > 1 && sh[ax] != ShadowWidth {
			t.Errorf("axis %d split %d-way but shadow %d", ax, grid[ax], sh[ax])
		}
		if grid[ax] == 1 && sh[ax] != 0 {
			t.Errorf("axis %d unsplit but shadowed", ax)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestViewRejectsNonDense(t *testing.T) {
	err := drms.Run(drms.Config{Tasks: 1, FS: testFS()}, func(tk *drms.Task) error {
		d, err := Decompose(5, 12, 1, false)
		if err != nil {
			return err
		}
		u, err := drms.NewArray[float64](tk, "u", d)
		if err != nil {
			return err
		}
		v, err := newView(u)
		if err != nil {
			return err
		}
		// Spot-check addressing against the slow path.
		u.Fill(func(c []int) float64 {
			return float64(c[0]*1000000 + c[1]*10000 + c[2]*100 + c[3])
		})
		for _, c := range [][4]int{{0, 0, 0, 0}, {4, 11, 11, 11}, {2, 3, 7, 5}} {
			want := u.At(c[:])
			if got := v.at(c[0], c[1], c[2], c[3]); got != want {
				return fmt.Errorf("view.at(%v) = %v, want %v", c, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Reference verification values, in the spirit of the NPB verification
// step: the class S checksum after 5 iterations on any task count. These
// pin the kernels' numerics — any change to stencils, coefficients or
// initial conditions fails here. Each is the exact sum of the final
// solution rounded once, which TestReferenceChecksums recomputes in
// math/big from the gathered array.
var referenceChecksums = map[string]float64{
	"bt": 12870.516404158494,
	"lu": 12870.578862026661,
	"sp": 12870.486877440913,
}

// exactSum is the checksum's reference: the gathered solution summed in
// math/big without rounding, then rounded once to nearest-even.
func exactSum(full []float64) float64 {
	sum := new(big.Float).SetPrec(4096)
	for _, v := range full {
		sum.Add(sum, new(big.Float).SetFloat64(v))
	}
	f, _ := sum.Float64()
	return f
}

func TestReferenceChecksums(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			want := referenceChecksums[k.Name]
			if got := runClean(t, k, 4, 5); got != want {
				t.Fatalf("class S verification failed: %.17g, want %.17g", got, want)
			}
			var sum, exact float64
			err := drms.Run(drms.Config{Tasks: 3, FS: testFS()}, func(tk *drms.Task) error {
				in, err := k.Setup(tk, ClassS)
				if err != nil {
					return err
				}
				for ; in.Iter < 5; in.Iter++ {
					if err := k.Step(in); err != nil {
						return err
					}
				}
				full, err := in.U().Gather(0, rangeset.ColMajor)
				if err != nil {
					return err
				}
				s, err := in.Checksum()
				if tk.Rank() == 0 {
					sum, exact = s, exactSum(full)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if sum != want || exact != want {
				t.Fatalf("3 tasks: checksum %.17g, math/big sum of the gathered solution %.17g, reference %.17g", sum, exact, want)
			}
		})
	}
}

func TestResidualsDeterministicAcrossTaskCounts(t *testing.T) {
	// The NPB-style verification norms are exact sums of squares, rounded
	// once: identical bits for any decomposition.
	run := func(tasks int) []float64 {
		var res []float64
		err := drms.Run(drms.Config{Tasks: tasks, FS: testFS()}, func(tk *drms.Task) error {
			in, err := BT().Setup(tk, ClassS)
			if err != nil {
				return err
			}
			for i := 0; i < 2; i++ {
				if err := BT().Step(in); err != nil {
					return err
				}
			}
			r, err := in.Residuals()
			if err != nil {
				return err
			}
			if tk.Rank() == 0 {
				res = r
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	if len(one) != 5 {
		t.Fatalf("%d residual components", len(one))
	}
	for _, m := range one {
		if m <= 0 || m != m {
			t.Fatalf("degenerate residual %v", m)
		}
	}
	for _, tasks := range []int{4, 6} {
		got := run(tasks)
		for i := range one {
			if math.Float64bits(got[i]) != math.Float64bits(one[i]) {
				t.Fatalf("component %d: %v (1 task) vs %v (%d tasks)", i, one[i], got[i], tasks)
			}
		}
	}
}
