package dist

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"drms/internal/frame"
	"drms/internal/rangeset"
)

// listRuns is how Block and GenBlock cut an axis before they sliced it by
// position: every index copied out with At and handed to List. It is the
// reference the builders' sections are compared against.
func listRuns(ax rangeset.Range, sizes []int) []rangeset.Range {
	out := make([]rangeset.Range, len(sizes))
	pos := 0
	for k, n := range sizes {
		elems := make([]int, n)
		for j := range elems {
			elems[j] = ax.At(pos + j)
		}
		out[k] = rangeset.List(elems...)
		pos += n
	}
	return out
}

// nearEqual returns Block's block lengths for n elements over k tasks.
func nearEqual(n, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = n / k
		if i < n%k {
			out[i]++
		}
	}
	return out
}

// sectionsOf composes per-axis runs into per-task sections, tasks
// enumerated column-major over the grid.
func sectionsOf(runs [][]rangeset.Range) []rangeset.Slice {
	p := 1
	for _, r := range runs {
		p *= len(r)
	}
	out := make([]rangeset.Slice, p)
	coord := make([]int, len(runs))
	for t := range out {
		rs := make([]rangeset.Range, len(runs))
		for i := range runs {
			rs[i] = runs[i][coord[i]]
		}
		out[t] = rangeset.NewSlice(rs...)
		for i := range coord {
			coord[i]++
			if coord[i] < len(runs[i]) {
				break
			}
			coord[i] = 0
		}
	}
	return out
}

// frameOf is the internal/frame encoding of sections, which checkpoint
// metadata stores.
func frameOf(sections []rangeset.Slice) []byte {
	return frame.Encode(func(c *frame.Codec) { frame.List(c, &sections, c.Slice) })
}

// sameSections checks d's sections against the reference element for
// element, in representation, and byte for byte in the frame checkpoint
// metadata stores.
func sameSections(t *testing.T, d *Distribution, want []rangeset.Slice) {
	t.Helper()
	if d.Tasks() != len(want) {
		t.Fatalf("%d tasks, reference has %d", d.Tasks(), len(want))
	}
	for p, w := range want {
		for _, got := range []rangeset.Slice{d.Assigned(p), d.Mapped(p)} {
			for i := 0; i < w.Rank(); i++ {
				g, r := got.Axis(i), w.Axis(i)
				if !reflect.DeepEqual(g.Elements(), r.Elements()) || g.IsRegular() != r.IsRegular() || g.String() != r.String() {
					t.Fatalf("task %d axis %d: got %v, reference %v", p, i, g, r)
				}
			}
		}
	}
	if got, ref := frameOf(d.assigned), frameOf(want); !bytes.Equal(got, ref) {
		t.Fatalf("assigned sections encode differently from the reference (%d vs %d bytes)", len(got), len(ref))
	}
	if got, ref := frameOf(d.mapped), frameOf(want); !bytes.Equal(got, ref) {
		t.Fatalf("mapped sections encode differently from the reference")
	}
}

// randomAxis returns a dense, stepped or irregular axis of n elements.
func randomAxis(rng *rand.Rand, n int) rangeset.Range {
	lo := rng.Intn(20) - 10
	switch rng.Intn(3) {
	case 0:
		return rangeset.Span(lo, lo+n-1)
	case 1:
		step := 2 + rng.Intn(4)
		return rangeset.Reg(lo, lo+(n-1)*step, step)
	}
	v := make([]int, n)
	for i := range v {
		v[i] = lo
		lo += 1 + rng.Intn(3)
	}
	return rangeset.List(v...)
}

func TestBuildersMatchListReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for iter := 0; iter < 300; iter++ {
		rank := 1 + rng.Intn(3)
		axes := make([]rangeset.Range, rank)
		grid := make([]int, rank)
		blockRuns := make([][]rangeset.Range, rank)
		sizes := make([][]int, rank)
		genRuns := make([][]rangeset.Range, rank)
		for i := range axes {
			n := 1 + rng.Intn(12)
			axes[i] = randomAxis(rng, n)
			grid[i] = 1 + rng.Intn(min(n, 4))
			blockRuns[i] = listRuns(axes[i], nearEqual(n, grid[i]))
			// Random positive block lengths summing to n.
			left := n
			for left > 0 {
				b := 1 + rng.Intn(left)
				sizes[i] = append(sizes[i], b)
				left -= b
			}
			genRuns[i] = listRuns(axes[i], sizes[i])
		}
		g := rangeset.NewSlice(axes...)
		d, err := Block(g, grid)
		if err != nil {
			t.Fatalf("Block(%v, %v): %v", g, grid, err)
		}
		sameSections(t, d, sectionsOf(blockRuns))
		d, err = GenBlock(g, sizes)
		if err != nil {
			t.Fatalf("GenBlock(%v, %v): %v", g, sizes, err)
		}
		sameSections(t, d, sectionsOf(genRuns))
	}
}

// TestCutRunsIsConstantTimeOnRegularAxes cannot flake: copying a
// 2^40-element axis out index by index does not finish inside the test
// timeout (or in memory). Block and GenBlock themselves still validate
// element-wise (rangeset.Range.Equal, ROADMAP item 1a), so only the
// cutting is held to this.
func TestCutRunsIsConstantTimeOnRegularAxes(t *testing.T) {
	const huge = 1 << 40
	runs := cutRuns(rangeset.Span(0, huge), 4)
	if len(runs) != 4 || runs[0].Size() != huge/4+1 || runs[0].Min() != 0 || runs[3].Max() != huge {
		t.Fatalf("cutRuns over a huge axis: %v", runs)
	}
	for i := 1; i < len(runs); i++ {
		if !runs[i].IsRegular() || runs[i].Min() != runs[i-1].Max()+1 {
			t.Fatalf("run %d = %v does not continue %v", i, runs[i], runs[i-1])
		}
	}
}

var sinkDist *Distribution

// BenchmarkBlock1D builds the 4-task block distribution of the 1-D axis
// lengths the wall-clock benchmark and the BENCH files use, validation
// included; `make test` runs it once.
func BenchmarkBlock1D(b *testing.B) {
	for _, n := range []int{131072, 262144} {
		g := rangeset.NewSlice(rangeset.Span(0, n-1))
		b.Run(g.String(), func(b *testing.B) {
			for b.Loop() {
				d, err := Block(g, []int{4})
				if err != nil {
					b.Fatal(err)
				}
				sinkDist = d
			}
		})
	}
}
