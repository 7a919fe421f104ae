package rangeset

import (
	"math/rand"
	"testing"
)

// withinRef is the definition Within replaces: r is within q when
// intersecting it with q gives r back.
func withinRef(r, q Range) bool { return r.Intersect(q).Equal(r) }

// withinForms adds to variants the forms that make containment likely:
// a stretch of r, every other element of r, and a dense cover of r with
// one more element on each side.
func withinForms(rng *rand.Rand, r Range) []Range {
	out := variants(rng, r)
	n := r.Size()
	if n == 0 {
		return out
	}
	i := rng.Intn(n)
	j := i + 1 + rng.Intn(n-i)
	el := r.Elements()
	var every2 []int
	for k := 0; k < n; k += 2 {
		every2 = append(every2, el[k])
	}
	return append(out, r.Sub(i, j), rawList(el[i:j]...), List(every2...), Span(r.Min()-1, r.Max()+1))
}

func TestWithinMatchesIntersectEqual(t *testing.T) {
	cases := []struct {
		r, q Range
		want bool
	}{
		{Range{}, Range{}, true},
		{Range{}, Single(3), true},
		{Single(3), Range{}, false},
		{Reg(4, 4, 7), Span(0, 9), true}, // one element: its step is not part of the set
		{Reg(4, 4, 7), Reg(0, 8, 3), false},
		{Reg(3, 3, 7), Reg(0, 9, 3), true},
		{Reg(2, 8, 2), Span(0, 9), true},
		{Reg(0, 8, 4), Reg(0, 10, 2), true},
		{Reg(0, 12, 6), Reg(0, 12, 3), true},
		{Reg(0, 12, 6), Reg(0, 12, 4), false}, // the step of q does not divide the step of r
		{Reg(2, 8, 2), Reg(0, 8, 4), false},
		{Reg(1, 9, 4), Reg(0, 10, 2), false}, // first element off q's lattice
		{Span(0, 10), Span(0, 9), false},     // last element past q
		{Span(3, 5), Single(4), false},
		{List(1, 2, 4), Span(0, 4), true},
		{List(1, 2, 5), Span(0, 4), false},
		{List(1, 3, 7), Reg(1, 9, 2), true},
		{List(1, 4, 7), Reg(1, 9, 2), false},
		{Span(2, 4), List(1, 2, 3, 4, 8), true},
		{Span(2, 5), List(1, 2, 3, 4, 8), false},
		{Reg(2, 8, 6), List(1, 2, 3, 4, 8), true},
		{List(2, 4, 8), List(1, 2, 4, 5, 8), true},
		{List(2, 4, 9), List(1, 2, 4, 5, 8), false},
		{List(0, 2, 4, 5, 8), List(2, 4, 8), false},
		{rawList(2, 4, 6), Reg(0, 6, 2), true},
		{Reg(0, 6, 2), rawList(0, 2, 4, 6), true},
		{Reg(0, 6, 2), rawList(0, 2, 4, 7), false},
		{rawList(7), Reg(7, 9, 5), true},
	}
	for _, c := range cases {
		if got := c.r.Within(c.q); got != c.want || got != withinRef(c.r, c.q) {
			t.Errorf("%v.Within(%v) = %v, want %v (intersect-then-compare %v)", c.r, c.q, got, c.want, withinRef(c.r, c.q))
		}
	}

	rng := rand.New(rand.NewSource(32))
	var verdicts [2]int
	for i := 0; i < 3000; i++ {
		as, bs := withinForms(rng, randomRange(rng)), withinForms(rng, randomRange(rng))
		for _, a := range as {
			for _, b := range append(bs, as...) {
				want := withinRef(a, b)
				if got := a.Within(b); got != want {
					t.Fatalf("iter %d: %#v.Within(%#v) = %v, intersect-then-compare %v", i, a, b, got, want)
				}
				if want {
					verdicts[1]++
				} else {
					verdicts[0]++
				}
			}
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("verdicts (false, true) = %v: both must occur", verdicts)
	}

	// Slices of rank 1-3: t differs from s on one axis by one of its
	// forms, so containment holds about as often as it fails.
	verdicts = [2]int{}
	for i := 0; i < 1000; i++ {
		rank := 1 + rng.Intn(3)
		s := randomSlice(rng, rank)
		tr := s.Ranges()
		ax := rng.Intn(rank)
		fs := withinForms(rng, tr[ax])
		tr[ax] = fs[rng.Intn(len(fs))]
		u := NewSlice(tr...)
		for _, p := range [][2]Slice{{s, u}, {u, s}, {s, randomSlice(rng, rank)}, {s.EmptyLike(), s}, {s, s.EmptyLike()}, {u, u}} {
			want := p[0].Intersect(p[1]).Equal(p[0])
			if got := p[0].Within(p[1]); got != want {
				t.Fatalf("iter %d: %v.Within(%v) = %v, intersect-then-compare %v", i, p[0], p[1], got, want)
			}
			if want {
				verdicts[1]++
			} else {
				verdicts[0]++
			}
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("slice verdicts (false, true) = %v: both must occur", verdicts)
	}
	// A section with an empty axis is within anything of its rank.
	if e := NewSlice(Span(0, 3), Range{}); !e.Within(NewSlice(Single(9), Single(9))) {
		t.Fatalf("empty section %v not within a one-element section", e)
	}
}

// TestWithinRegularIsConstantTime cannot flake: walking these ranges
// element by element does not finish inside the test timeout, and
// building an intersection of a list operand would allocate.
func TestWithinRegularIsConstantTime(t *testing.T) {
	const huge = 1 << 40
	cases := []struct {
		r, q Range
		want bool
	}{
		{Reg(0, 2*huge, 2), Span(0, 2*huge), true},
		{Span(0, huge), Span(0, huge), true},
		{Span(1, huge+1), Span(0, huge), false},
		{Reg(0, 2*huge, 4), Reg(0, 2*huge, 2), true},
		{List(0, 5, huge), Span(0, huge), true},
		{Span(0, huge), List(0, 5, huge), false},
	}
	for _, c := range cases {
		var got bool
		allocs := testing.AllocsPerRun(10, func() { got = c.r.Within(c.q) })
		if got != c.want || allocs != 0 {
			t.Errorf("%v.Within(%v) = %v with %.0f allocations, want %v with none", c.r, c.q, got, allocs, c.want)
		}
	}
	s, g := NewSlice(Span(0, huge), Reg(0, 2*huge, 2)), NewSlice(Span(0, huge), Span(0, 2*huge))
	var got bool
	if allocs := testing.AllocsPerRun(10, func() { got = s.Within(g) }); !got || allocs != 0 {
		t.Errorf("%v.Within(%v) = %v with %.0f allocations, want true with none", s, g, got, allocs)
	}
}

// BenchmarkSliceWithin1D checks a quarter block of the two 1-D axis
// lengths the wall-clock benchmark and the BENCH files use against the
// whole axis, the containment test of dist.Validate on a 4-task block;
// intersect-equal is the replaced form, as a yardstick. `make test` runs
// it once.
func BenchmarkSliceWithin1D(b *testing.B) {
	for _, n := range []int{131072, 262144} {
		g := NewSlice(Span(0, n-1))
		s := NewSlice(Span(n/4, n/2-1))
		b.Run(g.String()+"/within", func(b *testing.B) {
			for b.Loop() {
				sinkBool = s.Within(g)
			}
		})
		b.Run(g.String()+"/intersect-equal", func(b *testing.B) {
			for b.Loop() {
				sinkBool = s.Intersect(g).Equal(s)
			}
		})
	}
}
