package array

import (
	"math/rand"
	"testing"

	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// randomSizes splits extent n into k random positive block lengths — a
// GenBlock axis decomposition.
func randomSizes(rng *rand.Rand, n, k int) []int {
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = 1
	}
	for extra := n - k; extra > 0; extra-- {
		sizes[rng.Intn(k)]++
	}
	return sizes
}

// randomDistAnyKind draws a distribution of g over a g0×g1 task grid from
// the three families the paper supports: regular block, generalized
// block, and fully irregular index-list distributions, occasionally with
// a shadow region so mapped sections strictly contain assigned ones.
func randomDistAnyKind(rng *rand.Rand, g rangeset.Slice, g0, g1 int) *dist.Distribution {
	var d *dist.Distribution
	var err error
	switch rng.Intn(3) {
	case 0:
		d, err = dist.Block(g, []int{g0, g1})
	case 1:
		d, err = dist.GenBlock(g, [][]int{
			randomSizes(rng, g.Axis(0).Size(), g0),
			randomSizes(rng, g.Axis(1).Size(), g1),
		})
	default:
		return randomDist(rng, g, g0, g1)
	}
	if err != nil {
		panic(err)
	}
	if rng.Intn(3) == 0 {
		if sd, serr := d.WithShadow([]int{1, 1}); serr == nil {
			d = sd
		}
	}
	return d
}

// TestAssignPlannedMatchesReferenceQuick is the oracle for the plan
// cache: for random (src, dst) distribution pairs across all three
// distribution families, the plan-driven Assign and the plan-free
// reference implementation must produce bitwise-identical destination
// storage — cold (first use of the pair builds the plan) and warm (second
// use replays it).
func TestAssignPlannedMatchesReferenceQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for iter := 0; iter < 30; iter++ {
		rows := 3 + rng.Intn(9)
		cols := 3 + rng.Intn(9)
		g := rangeset.Box([]int{0, 0}, []int{rows - 1, cols - 1})
		g0 := 1 + rng.Intn(min(3, rows))
		g1 := 1 + rng.Intn(min(3, cols))
		srcD := randomDistAnyKind(rng, g, g0, g1)
		dstD := randomDistAnyKind(rng, g, g0, g1)

		FlushPlans()
		mustRun(t, g0*g1, func(c *msg.Comm) {
			src, err := New[float64](c, "a", srcD)
			if err != nil {
				panic(err)
			}
			planned, err := New[float64](c, "b", dstD)
			if err != nil {
				panic(err)
			}
			reference, err := New[float64](c, "c", dstD)
			if err != nil {
				panic(err)
			}
			for pass := 0; pass < 2; pass++ { // cold, then warm
				fill := func(cd []int) float64 { return coordVal(cd) + float64(pass)*1000 }
				src.Fill(fill)
				if err := Assign(planned, src); err != nil {
					panic(err)
				}
				if err := assignReference(reference, src); err != nil {
					panic(err)
				}
				pl, rl := planned.Local(), reference.Local()
				if len(pl) != len(rl) {
					panic("planned and reference local sizes differ")
				}
				for i := range pl {
					if pl[i] != rl[i] {
						panic("planned Assign diverges from reference")
					}
				}
			}
		})
	}
}

// TestAssignPlanCacheHitsAndEviction pins the plan mechanics: within one
// application instance a repeated (src, dst) pair misses once per rank
// and then hits, and a fresh application instance (new communicators,
// e.g. a reconfigured restart) never sees stale plans, because plans live
// in the communicator that ran them.
func TestAssignPlanCacheHitsAndEviction(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{7, 7})
	srcD, err := dist.Block(g, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	dstD, err := dist.Block(g, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func(assigns int) {
		mustRun(t, 2, func(c *msg.Comm) {
			src, _ := New[float64](c, "a", srcD)
			dst, _ := New[float64](c, "b", dstD)
			src.Fill(coordVal)
			for k := 0; k < assigns; k++ {
				if err := Assign(dst, src); err != nil {
					panic(err)
				}
			}
		})
	}
	FlushPlans()
	h0, m0 := PlanCacheStats()
	stats := func() (hits, misses uint64) {
		h, m := PlanCacheStats()
		return h - h0, m - m0
	}
	run(3)
	// One miss per rank on the first assignment, hits on the other two.
	if h, m := stats(); h != 4 || m != 2 {
		t.Fatalf("single instance: hits=%d misses=%d, want 4/2", h, m)
	}
	// A new application instance has new communicators: its first
	// assignment must miss (no cross-instance plan reuse).
	run(1)
	if h, m := stats(); h != 4 || m != 4 {
		t.Fatalf("second instance: hits=%d misses=%d, want 4/4", h, m)
	}
}

// TestAssignPlannedAcrossDistributions cycles the destination through a
// few distributions and checks that assignments keep matching the
// reference: distribution pointers key the plans, so a handle on another
// distribution plans afresh (or replays its own plan when the pointer
// comes round again) — no explicit invalidation, no staleness.
func TestAssignPlannedAcrossDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	g := rangeset.Box([]int{0, 0}, []int{9, 11})
	srcD := randomDistAnyKind(rng, g, 2, 2)
	dists := []*dist.Distribution{
		randomDistAnyKind(rng, g, 2, 2),
		randomDistAnyKind(rng, g, 2, 2),
		randomDistAnyKind(rng, g, 2, 2),
	}
	mustRun(t, 4, func(c *msg.Comm) {
		src, err := New[float64](c, "a", srcD)
		if err != nil {
			panic(err)
		}
		src.Fill(coordVal)
		for round := 0; round < 6; round++ {
			d := dists[round%len(dists)]
			dst, err := New[float64](c, "b", d)
			if err != nil {
				panic(err)
			}
			reference, err := New[float64](c, "c", d)
			if err != nil {
				panic(err)
			}
			if err := Assign(dst, src); err != nil {
				panic(err)
			}
			if err := assignReference(reference, src); err != nil {
				panic(err)
			}
			pl, rl := dst.Local(), reference.Local()
			for i := range pl {
				if pl[i] != rl[i] {
					panic("planned Assign diverges from reference on a new distribution")
				}
			}
		}
	})
}
