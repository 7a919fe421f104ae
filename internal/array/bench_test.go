package array

import (
	"testing"

	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// BenchmarkAssignPlannedBT is the repository root's BenchmarkAssignPlanned
// on the paper's BT shape: 5 × 48³ float64 with the 5-element fast axis
// undistributed, {1,2,2,1} → {1,1,1,4} on four tasks. "cold" flushes the
// plan cache before every assignment, "warm" replays the cached plan.
// runs/plan is what one rank's plan holds (all four lists, mean over the
// ranks): it was 2 × elements/5/4 = 55296 while a run was a fast-axis run.
// It lives here, not beside its sibling, because that count is internal.
func BenchmarkAssignPlannedBT(b *testing.B) {
	const n, tasks = 48, 4
	g := rangeset.Box([]int{0, 0, 0, 0}, []int{4, n - 1, n - 1, n - 1})
	d1 := mustBlock(b, g, []int{1, 2, 2, 1})
	d2 := mustBlock(b, g, []int{1, 1, 1, 4})
	runs := 0
	for r := 0; r < tasks; r++ {
		p, u := planRuns(buildAssignPlan(d1, d2, r, tasks, 8, rangeset.ColMajor, noPiece))
		runs += p + u
	}
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			b.SetBytes(int64(g.Size() * 8))
			b.ReportAllocs()
			FlushPlans()
			h0, m0 := PlanCacheStats()
			mustRun(b, tasks, func(c *msg.Comm) {
				src, _ := New[float64](c, "a", d1)
				dst, _ := New[float64](c, "b", d2)
				src.Fill(coordVal)
				if err := Assign(dst, src); err != nil { // prime / first build
					panic(err)
				}
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				c.Barrier()
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						if c.Rank() == 0 {
							FlushPlans()
						}
						c.Barrier()
					}
					if err := Assign(dst, src); err != nil {
						panic(err)
					}
				}
			})
			h, m := PlanCacheStats()
			b.ReportMetric(float64(h-h0), "plan-hits")
			b.ReportMetric(float64(m-m0), "plan-misses")
			b.ReportMetric(float64(runs)/tasks, "runs/plan")
		})
	}
}

// BenchmarkPieceExchangeBT is one streaming round trip of the same array in
// the shape stream.Write and Read give it: the {1,2,2,1} blocks (shadowed,
// as BT declares them) packed into four column-major pieces of the whole
// space, one per task, and unpacked again — what a checkpoint and a restart
// cost per round without file I/O. "aux" is the path the exchange replaced
// (Assign into an auxiliary array on the canonical distribution, then
// PackSectionInto, and back), kept here as the yardstick.
func BenchmarkPieceExchangeBT(b *testing.B) {
	const n, tasks = 48, 4
	g := rangeset.Box([]int{0, 0, 0, 0}, []int{4, n - 1, n - 1, n - 1})
	grid := []int{1, 2, 2, 1}
	d := mustShadow(b, mustBlock(b, g, grid), grid)
	round := canonicalRounds(b, g, tasks, rangeset.ColMajor)[0]
	must := func(_ int64, err error) {
		if err != nil {
			panic(err)
		}
	}
	for _, mode := range []string{"pieces", "aux"} {
		b.Run(mode, func(b *testing.B) {
			b.SetBytes(int64(2 * g.Size() * 8))
			b.ReportAllocs()
			mustRun(b, tasks, func(c *msg.Comm) {
				a, _ := New[float64](c, "a", d)
				a.Fill(coordVal)
				piece := round.Mapped(c.Rank())
				buf := make([]byte, piece.Size()*8)
				rd := NewRound(round)
				trip := func() {
					must(PackPieces(a, rd, rangeset.ColMajor, buf))
					must(UnpackPieces(a, rd, rangeset.ColMajor, buf))
				}
				if mode == "aux" {
					aux, _ := New[float64](c, "aux", round)
					trip = func() {
						clear(aux.Local())
						must(0, Assign(aux, a))
						must(0, aux.PackSectionInto(piece, rangeset.ColMajor, buf))
						must(0, aux.UnpackSection(piece, rangeset.ColMajor, buf))
						must(0, Assign(a, aux))
					}
				}
				trip() // build the plans
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				c.Barrier()
				for i := 0; i < b.N; i++ {
					trip()
				}
			})
		})
	}
}

// BenchmarkChecksumBT is Checksum of the same shadowed 5 × 48³ BT array on
// four tasks: each adds its block into an exact accumulator, and one
// Allgather of the accumulators follows. MB/s is array bytes summed per
// second over all four tasks.
func BenchmarkChecksumBT(b *testing.B) {
	const n, tasks = 48, 4
	g := rangeset.Box([]int{0, 0, 0, 0}, []int{4, n - 1, n - 1, n - 1})
	grid := []int{1, 2, 2, 1}
	d := mustShadow(b, mustBlock(b, g, grid), grid)
	b.SetBytes(int64(g.Size() * 8))
	b.ReportAllocs()
	mustRun(b, tasks, func(c *msg.Comm) {
		a, _ := New[float64](c, "u", d)
		a.Fill(coordVal)
		if _, err := a.Checksum(); err != nil { // build the plan
			panic(err)
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			if _, err := a.Checksum(); err != nil {
				panic(err)
			}
		}
	})
}

// BenchmarkStorageRuns times the enumerator alone, per fast-axis run of the
// section (ns/run: what it cost while it walked those; runs/op are the
// extents it emits): the cost a cold plan build and every
// PackSectionInto/UnpackSection pay. bt-block is a 5 × 24 × 24 × 48 block
// of grid {1,2,2,1} inside its shadowed mapping (5 × 24-element extents),
// canonical-piece a stream piece that is its own storage (one extent, every
// axis folded), whole-planes every other 5 × 48 × 48 plane of the global
// space (three axes folded, the fourth one rank-run per plane),
// row-over-col the block walked row-major over its column-major storage
// (no merging, layout stride ≠ 1), 1d one block of a 131072-element vector
// and cyclic one task's share of that vector dealt element by element: a
// single rank-run found from its ends, and no table.
func BenchmarkStorageRuns(b *testing.B) {
	const n = 48
	g := rangeset.Box([]int{0, 0, 0, 0}, []int{4, n - 1, n - 1, n - 1})
	grid := []int{1, 2, 2, 1}
	bt := mustShadow(b, mustBlock(b, g, grid), grid)
	piece := canonicalRounds(b, g, 4, rangeset.ColMajor)[0].Assigned(0)
	planes := rangeset.NewSlice(g.Axis(0), g.Axis(1), g.Axis(2), rangeset.Reg(0, n-1, 2))
	line := rangeset.Box([]int{0}, []int{131071})
	vec := mustBlock(b, line, []int{4})
	cyc, err := dist.BlockCyclic(line, []int{4}, []int{1})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name       string
		sec, space rangeset.Slice
		order      rangeset.Order
	}{
		{"bt-block", bt.Assigned(0), bt.Mapped(0), rangeset.ColMajor},
		{"canonical-piece", piece, piece, rangeset.ColMajor},
		{"whole-planes", planes, g, rangeset.ColMajor},
		{"row-over-col", bt.Assigned(0), bt.Mapped(0), rangeset.RowMajor},
		{"1d", vec.Assigned(0), vec.Mapped(0), rangeset.ColMajor},
		{"cyclic", cyc.Assigned(1), cyc.Mapped(1), rangeset.ColMajor},
	} {
		b.Run(bc.name, func(b *testing.B) {
			walked, emitted, elems := fastAxisRuns(bc.sec, bc.order), 0, 0
			b.ReportAllocs()
			b.ResetTimer() // counting the fast-axis runs walks the axis
			for i := 0; i < b.N; i++ {
				emitted, elems = 0, 0
				storageRuns(bc.sec, bc.space, rangeset.ColMajor, bc.order, func(off, k int) {
					emitted++
					elems += k
				})
			}
			if elems != bc.sec.Size() {
				b.Fatalf("runs cover %d elements, section has %d", elems, bc.sec.Size())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*walked), "ns/run")
			b.ReportMetric(float64(emitted), "runs/op")
		})
	}
}
