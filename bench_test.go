// Benchmarks regenerating each table and figure of the paper (via the
// trace-replay platform model) and measuring the live performance of the
// core primitives on this machine. Run with:
//
//	go test -bench=. -benchmem
//
// Table/figure benches use problem class W by default so a full -bench=.
// sweep stays tractable; cmd/drmsbench regenerates everything at the
// paper's class A.
package drms_test

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"drms/internal/apps"
	"drms/internal/array"
	"drms/internal/bench"
	"drms/internal/ckpt"
	"drms/internal/dist"
	"drms/internal/drms"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/stream"
)

// --- Table and figure regeneration -----------------------------------------

func BenchmarkTable1SourceCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1()
		if len(rows) != 3 {
			b.Fatal("table 1 incomplete")
		}
	}
}

func BenchmarkTable3SavedStateSizes(b *testing.B) {
	var drmsTotal, spmd16 int64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table3(apps.ClassA, []int{4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		drmsTotal, spmd16 = rows[0].DRMSTotal(), rows[0].SPMD[16]
	}
	b.ReportMetric(bench.MB(drmsTotal), "BT-drms-MB")
	b.ReportMetric(bench.MB(spmd16), "BT-spmd16-MB")
}

func BenchmarkTable4SegmentComponents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table4(apps.ClassA)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Total == 0 {
			b.Fatal("empty model")
		}
	}
}

// benchTimingGrid regenerates the Table 5/6 + Figure 7 measurement grid
// b.N times (the grid run is the benchmarked operation).
func benchTimingGrid(b *testing.B, class apps.Class) map[string]map[int]bench.Table5Cell {
	b.Helper()
	var cells map[string]map[int]bench.Table5Cell
	var err error
	for i := 0; i < b.N; i++ {
		cells, err = bench.Table5(class, []int{8, 16}, bench.SPPlatform())
		if err != nil {
			b.Fatal(err)
		}
	}
	return cells
}

// cachedGrid builds the class W grid once, for benchmarks whose measured
// operation is something downstream of it (rendering).
var (
	gridOnce  sync.Once
	gridCells map[string]map[int]bench.Table5Cell
	gridErr   error
)

func cachedGrid(b *testing.B) map[string]map[int]bench.Table5Cell {
	b.Helper()
	gridOnce.Do(func() {
		gridCells, gridErr = bench.Table5(apps.ClassW, []int{8, 16}, bench.SPPlatform())
	})
	if gridErr != nil {
		b.Fatal(gridErr)
	}
	return gridCells
}

func BenchmarkTable5CheckpointRestartTimes(b *testing.B) {
	cells := benchTimingGrid(b, apps.ClassW)
	c := cells["bt"][16]
	b.ReportMetric(c.DRMS.CkSeconds, "BT16-drms-ck-s")
	b.ReportMetric(c.SPMD.CkSeconds, "BT16-spmd-ck-s")
}

func BenchmarkTable6DRMSComponents(b *testing.B) {
	cells := benchTimingGrid(b, apps.ClassW)
	t := cells["bt"][8].DRMS
	b.ReportMetric(t.CkSegSeconds, "BT8-seg-s")
	b.ReportMetric(t.CkArrSeconds, "BT8-arr-s")
}

func BenchmarkFigure7Render(b *testing.B) {
	cells := cachedGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := bench.RenderFigure7(apps.ClassW, cells, []int{8, 16}); len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkSection6RatioModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RatioTable([][3]int{{32, 2, 3}, {16, 2, 3}}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Live microbenchmarks of the core primitives ---------------------------

func benchGrid(n int) rangeset.Slice {
	return rangeset.Box([]int{0, 0, 0}, []int{n - 1, n - 1, n - 1})
}

func BenchmarkArrayAssignRedistribute(b *testing.B) {
	const n, tasks = 48, 4
	g := benchGrid(n)
	bytes := int64(g.Size() * 8)
	b.SetBytes(bytes)
	mustRun(b, tasks, func(c *msg.Comm) {
		d1, _ := dist.Block(g, []int{4, 1, 1})
		d2, _ := dist.Block(g, []int{1, 2, 2})
		src, _ := array.New[float64](c, "a", d1)
		dst, _ := array.New[float64](c, "b", d2)
		src.Fill(func(cd []int) float64 { return float64(cd[0]) })
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			if err := array.Assign(dst, src); err != nil {
				panic(err)
			}
		}
	})
}

func BenchmarkParallelStreamWrite(b *testing.B) {
	const n, tasks = 48, 4
	g := benchGrid(n)
	fs := pfs.NewSystem(pfs.DefaultConfig())
	b.SetBytes(int64(g.Size() * 8))
	mustRun(b, tasks, func(c *msg.Comm) {
		d, _ := dist.Block(g, []int{2, 2, 1})
		a, _ := array.New[float64](c, "u", d)
		a.Fill(func(cd []int) float64 { return float64(cd[0] + cd[1]) })
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			if _, err := stream.Write(a, g, fs, "out", stream.Options{}); err != nil {
				panic(err)
			}
			c.Barrier()
		}
	})
}

func BenchmarkSerialStreamWrite(b *testing.B) {
	const n, tasks = 48, 4
	g := benchGrid(n)
	fs := pfs.NewSystem(pfs.DefaultConfig())
	b.SetBytes(int64(g.Size() * 8))
	mustRun(b, tasks, func(c *msg.Comm) {
		d, _ := dist.Block(g, []int{2, 2, 1})
		a, _ := array.New[float64](c, "u", d)
		a.Fill(func(cd []int) float64 { return float64(cd[0] + cd[1]) })
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			if _, err := stream.Write(a, g, fs, "out", stream.Options{Writers: 1}); err != nil {
				panic(err)
			}
			c.Barrier()
		}
	})
}

// BenchmarkPackSection measures section linearization of a 2 MB float64
// section: the run-based bulk fast path against the retired element-wise
// loop (one coordinate lookup and one 8-byte encode per element), which
// is kept here as the baseline the fast path is required to beat.
func BenchmarkPackSection(b *testing.B) {
	g := benchGrid(64) // 64^3 float64 = 2 MB
	b.Run("bulk", func(b *testing.B) {
		mustRun(b, 1, func(c *msg.Comm) {
			d, _ := dist.Block(g, []int{1, 1, 1})
			a, _ := array.New[float64](c, "p", d)
			a.Fill(func(cd []int) float64 { return float64(cd[0] - cd[2]) })
			buf := make([]byte, g.Size()*8)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.PackSectionInto(g, rangeset.ColMajor, buf)
			}
		})
	})
	b.Run("elementwise", func(b *testing.B) {
		mustRun(b, 1, func(c *msg.Comm) {
			d, _ := dist.Block(g, []int{1, 1, 1})
			a, _ := array.New[float64](c, "p", d)
			a.Fill(func(cd []int) float64 { return float64(cd[0] - cd[2]) })
			local := a.Local()
			buf := make([]byte, g.Size()*8)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := 0
				g.Each(rangeset.ColMajor, func(cd []int) {
					binary.LittleEndian.PutUint64(buf[j*8:], math.Float64bits(local[a.LocalIndex(cd)]))
					j++
				})
			}
		})
	})
}

// BenchmarkAssignBulk measures a worst-case redistribution (every task
// exchanges with every other: blocks along axis 0 to blocks along axis 2)
// through the bulk pack/exchange/unpack pipeline with pooled buffers.
func BenchmarkAssignBulk(b *testing.B) {
	const n, tasks = 64, 4
	g := benchGrid(n)
	b.SetBytes(int64(g.Size() * 8))
	mustRun(b, tasks, func(c *msg.Comm) {
		d1, _ := dist.Block(g, []int{tasks, 1, 1})
		d2, _ := dist.Block(g, []int{1, 1, tasks})
		src, _ := array.New[float64](c, "a", d1)
		dst, _ := array.New[float64](c, "b", d2)
		src.Fill(func(cd []int) float64 { return float64(cd[0]*n + cd[1]) })
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			if err := array.Assign(dst, src); err != nil {
				panic(err)
			}
		}
	})
}

// BenchmarkStreamPipelined measures a parallel stream write planned into
// many rounds (small pieces), so the async-write overlap between round
// r's file I/O and round r+1's redistribution is actually exercised.
func BenchmarkStreamPipelined(b *testing.B) {
	const n, tasks = 64, 4
	g := benchGrid(n)
	fs := pfs.NewSystem(pfs.DefaultConfig())
	b.SetBytes(int64(g.Size() * 8))
	mustRun(b, tasks, func(c *msg.Comm) {
		d, _ := dist.Block(g, []int{2, 2, 1})
		a, _ := array.New[float64](c, "u", d)
		a.Fill(func(cd []int) float64 { return float64(cd[0] + cd[1]) })
		o := stream.Options{PieceBytes: 1 << 17} // 16 pieces -> 4 overlapped rounds
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			if _, err := stream.Write(a, g, fs, "out", o); err != nil {
				panic(err)
			}
			c.Barrier()
		}
	})
}

func BenchmarkCheckpointDRMS(b *testing.B) { benchCheckpoint(b, false) }
func BenchmarkCheckpointSPMD(b *testing.B) { benchCheckpoint(b, true) }

func benchCheckpoint(b *testing.B, spmd bool) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	k := apps.SP()
	var state int64
	for i := 0; i < b.N; i++ {
		err := drms.Run(drms.Config{Tasks: 4, FS: fs, SPMDMode: spmd},
			k.App(apps.RunConfig{Class: apps.ClassS, Iters: 0, CkEvery: 1, Prefix: "ck"}))
		if err != nil {
			b.Fatal(err)
		}
		state = ckpt.StateBytes(fs, "ck")
	}
	b.ReportMetric(bench.MB(state), "stateMB")
}

func BenchmarkReconfiguredRestart(b *testing.B) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	k := apps.SP()
	err := drms.Run(drms.Config{Tasks: 4, FS: fs},
		k.App(apps.RunConfig{Class: apps.ClassS, Iters: 0, CkEvery: 1, Prefix: "ck"}))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := drms.Run(drms.Config{Tasks: 6, FS: fs, RestartFrom: "ck"},
			k.App(apps.RunConfig{Class: apps.ClassS, Iters: 0, CkEvery: 1, Prefix: "ck2"}))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestart1D is the 1-D counterpart of BenchmarkReconfiguredRestart,
// shaped like the wall-clock benchmark's 1-D workloads: a float64 and an
// int32 array of 131 072 elements each, block-distributed, checkpointed
// once on 4 tasks and restarted on 4 tasks with every piece's CRC
// verified. Each restart declares fresh distributions, so dist's
// validation is on its path.
func BenchmarkRestart1D(b *testing.B) {
	const n = 131072
	g := rangeset.NewSlice(rangeset.Span(0, n-1))
	fs := pfs.NewSystem(pfs.DefaultConfig())
	sums := make([]float64, 2)
	body := func(restart bool) func(t *drms.Task) error {
		return func(t *drms.Task) error {
			d, err := dist.Block(g, []int{t.Tasks()})
			if err != nil {
				return err
			}
			u, err := drms.NewArray[float64](t, "u", d)
			if err != nil {
				return err
			}
			tab, err := drms.NewArray[int32](t, "tab", d)
			if err != nil {
				return err
			}
			if !restart {
				u.Fill(func(c []int) float64 { return float64(c[0]) * 0.5 })
				tab.Fill(func(c []int) int32 { return int32(c[0] % 251) })
			}
			st, _, err := t.ReconfigCheckpoint("ck")
			if err != nil {
				return err
			}
			if restart != (st == drms.Restored) {
				b.Errorf("restart %v: status %v", restart, st)
			}
			su, err := u.Checksum()
			if err != nil {
				return err
			}
			stab, err := tab.Checksum()
			if err != nil {
				return err
			}
			if t.Rank() == 0 {
				if !restart {
					sums[0], sums[1] = su, stab
				} else if su != sums[0] || stab != sums[1] {
					b.Errorf("restored checksums %v, %v; written %v", su, stab, sums)
				}
			}
			return nil
		}
	}
	if err := drms.Run(drms.Config{Tasks: 4, FS: fs}, body(false)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := drms.Run(drms.Config{Tasks: 4, FS: fs, RestartFrom: "ck", Verify: true}, body(true)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSegmentEncodeDecode(b *testing.B) {
	s := seg.New()
	iter := 42
	dt := 0.5
	name := "bt.classA"
	blob := make([]byte, 4096*8)
	s.Register("iter", &iter)
	s.Register("dt", &dt)
	s.Register("name", &name)
	s.Register("blob", &blob)
	payload, err := s.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		p, err := s.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Decode(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelStep(b *testing.B) {
	for _, k := range apps.Kernels() {
		k := k
		b.Run(k.Name, func(b *testing.B) {
			fs := pfs.NewSystem(pfs.DefaultConfig())
			err := drms.Run(drms.Config{Tasks: 4, FS: fs}, func(t *drms.Task) error {
				in, err := k.Setup(t, apps.ClassS)
				if err != nil {
					return err
				}
				if t.Rank() == 0 {
					b.ResetTimer()
				}
				t.Comm().Barrier()
				for i := 0; i < b.N; i++ {
					if err := k.Step(in); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkSlicePartition(b *testing.B) {
	s := rangeset.Box([]int{0, 0, 0}, []int{63, 63, 63})
	for i := 0; i < b.N; i++ {
		if p := s.Partition(64, rangeset.ColMajor); len(p) < 64 {
			b.Fatal("short partition")
		}
	}
}

func BenchmarkRangeIntersect(b *testing.B) {
	r1 := rangeset.Reg(0, 100000, 3)
	r2 := rangeset.Reg(1, 100000, 7)
	for i := 0; i < b.N; i++ {
		if r1.Intersect(r2).Empty() {
			b.Fatal("unexpected empty")
		}
	}
}

// BenchmarkAssignPlanned measures the redistribution of
// BenchmarkArrayAssignRedistribute's exact shape with the plan cache
// under explicit control: "cold" flushes the cache before every
// assignment (each iteration rebuilds intersections, runs, and offsets —
// the pre-plan cost), "warm" leaves it in place so every iteration
// replays the cached plan. The warm/cold ratio is the plan layer's
// payoff; hit/miss counters confirm what each variant exercised.
func BenchmarkAssignPlanned(b *testing.B) {
	const n, tasks = 48, 4
	g := benchGrid(n)
	bytes := int64(g.Size() * 8)
	for _, mode := range []string{"cold", "warm"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			b.SetBytes(bytes)
			array.FlushPlans()
			h0, m0 := array.PlanCacheStats()
			mustRun(b, tasks, func(c *msg.Comm) {
				d1, _ := dist.Block(g, []int{4, 1, 1})
				d2, _ := dist.Block(g, []int{1, 2, 2})
				src, _ := array.New[float64](c, "a", d1)
				dst, _ := array.New[float64](c, "b", d2)
				src.Fill(func(cd []int) float64 { return float64(cd[0]) })
				if err := array.Assign(dst, src); err != nil { // prime / first build
					panic(err)
				}
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				c.Barrier()
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						if c.Rank() == 0 {
							array.FlushPlans()
						}
						c.Barrier()
					}
					if err := array.Assign(dst, src); err != nil {
						panic(err)
					}
				}
			})
			h, m := array.PlanCacheStats()
			b.ReportMetric(float64(h-h0), "plan-hits")
			b.ReportMetric(float64(m-m0), "plan-misses")
		})
	}
}

// BenchmarkCheckpointDRMSSteadyState measures the paper's periodic
// checkpointing regime: one application instance taking a checkpoint
// every interval, so every checkpoint after the first replays cached
// streaming and redistribution plans. Counters from both plan caches
// verify the steady state is plan-hits, not rebuilds.
func BenchmarkCheckpointDRMSSteadyState(b *testing.B) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	k := apps.SP()
	array.FlushPlans()
	stream.FlushPlans()
	ah0, am0 := array.PlanCacheStats()
	sh0, sm0 := stream.PlanCacheStats()
	var state int64
	err := drms.Run(drms.Config{Tasks: 4, FS: fs}, func(t *drms.Task) error {
		in, err := k.Setup(t, apps.ClassS)
		if err != nil {
			return err
		}
		// Prime: the first checkpoint of the run builds every plan.
		if _, _, err := t.ReconfigCheckpoint("ck"); err != nil {
			return err
		}
		if t.Rank() == 0 {
			b.ResetTimer()
		}
		t.Comm().Barrier()
		for i := 0; i < b.N; i++ {
			if err := k.Step(in); err != nil {
				return err
			}
			if _, _, err := t.ReconfigCheckpoint("ck"); err != nil {
				return err
			}
		}
		state = ckpt.StateBytes(fs, "ck")
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(bench.MB(state), "stateMB")
	ah, am := array.PlanCacheStats()
	sh, sm := stream.PlanCacheStats()
	b.ReportMetric(float64(ah-ah0), "arr-plan-hits")
	b.ReportMetric(float64(am-am0), "arr-plan-misses")
	b.ReportMetric(float64(sh-sh0), "stream-plan-hits")
	b.ReportMetric(float64(sm-sm0), "stream-plan-misses")
}
