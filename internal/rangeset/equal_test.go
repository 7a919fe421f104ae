package rangeset

import (
	"bytes"
	"math/rand"
	"testing"
)

// equalRef is the element-wise definition of Range equality: the oracle
// Equal is held to, whatever shortcuts it takes (ROADMAP item 1a).
func equalRef(r, q Range) bool {
	if r.Size() != q.Size() {
		return false
	}
	for i, n := 0, r.Size(); i < n; i++ {
		if r.At(i) != q.At(i) {
			return false
		}
	}
	return true
}

// sliceEqualRef is Slice.Equal over equalRef.
func sliceEqualRef(s, t Slice) bool {
	if s.Rank() != t.Rank() {
		return false
	}
	if s.Empty() && t.Empty() {
		return true
	}
	for i := 0; i < s.Rank(); i++ {
		if !equalRef(s.Axis(i), t.Axis(i)) {
			return false
		}
	}
	return true
}

// rawList builds the index-list form without List's collapse to regular
// form — what only a hand-built or decoded value can hold, and the one
// way a regular range and an index list can be equal sets.
func rawList(v ...int) Range { return Range{idx: v} }

// variants returns ranges related to r so that random pairs are often
// equal or nearly so: the same set rebuilt through each constructor, in
// raw list form, and perturbed by one element.
func variants(rng *rand.Rand, r Range) []Range {
	el := r.Elements()
	out := []Range{r, List(el...), rawList(el...), r.Shift(0), r.Shift(1)}
	if len(el) > 0 {
		bumped := append([]int(nil), el...)
		bumped[len(bumped)-1] += 1 + rng.Intn(3)
		out = append(out, List(bumped...), rawList(bumped...), List(el[:len(el)-1]...))
	}
	return out
}

func TestEqualMatchesElementwise(t *testing.T) {
	cases := []struct {
		a, b Range
		want bool
	}{
		{Range{}, Range{}, true},
		{Range{}, Reg(5, 4, 1), true},
		{List(), Reg(0, -1, 3), true},
		{Range{}, Single(0), false},
		{Reg(5, 5, 1), Reg(5, 9, 7), true}, // one element: the step is not part of the set
		{Single(5), Reg(5, 6, 3), true},
		{Reg(5, 9, 7), Single(6), false},
		{Span(0, 9), Reg(0, 9, 1), true},
		{Span(0, 9), Reg(0, 18, 2), false}, // same size and start, other step
		{Span(0, 9), Span(1, 10), false},
		{List(1, 2, 4, 8), List(1, 2, 4, 8), true},
		{List(1, 2, 4, 8), List(1, 2, 4, 9), false},
		{List(1, 2, 4, 8), Reg(1, 7, 2), false}, // mixed, same size
		{rawList(2, 4, 6), Reg(2, 6, 2), true},  // mixed, equal sets
		{Reg(2, 6, 2), rawList(2, 4, 7), false},
		{rawList(7), Reg(7, 9, 5), true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want || got != equalRef(c.a, c.b) {
			t.Errorf("%v.Equal(%v) = %v, want %v (element-wise %v)", c.a, c.b, got, c.want, equalRef(c.a, c.b))
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.b, c.a, got, c.want)
		}
	}

	rng := rand.New(rand.NewSource(16))
	equal := 0
	for i := 0; i < 3000; i++ {
		as, bs := variants(rng, randomRange(rng)), variants(rng, randomRange(rng))
		for _, a := range as {
			for _, b := range append(bs, as...) {
				want := equalRef(a, b)
				if got := a.Equal(b); got != want {
					t.Fatalf("iter %d: %#v.Equal(%#v) = %v, element-wise %v", i, a, b, got, want)
				}
				if want {
					equal++
				}
			}
		}
	}
	if equal == 0 {
		t.Fatal("no equal pair generated")
	}
}

func TestSliceEqualMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		rank := 1 + rng.Intn(3)
		s := randomSlice(rng, rank)
		// t differs from s on at most one axis, by one of its variants.
		tr := s.Ranges()
		ax := rng.Intn(rank)
		vs := variants(rng, tr[ax])
		tr[ax] = vs[rng.Intn(len(vs))]
		for _, u := range []Slice{NewSlice(tr...), randomSlice(rng, rank), randomSlice(rng, 1+rng.Intn(3)), s.EmptyLike()} {
			if got, want := s.Equal(u), sliceEqualRef(s, u); got != want {
				t.Fatalf("iter %d: %v.Equal(%v) = %v, element-wise %v", i, s, u, got, want)
			}
		}
	}
	// Empty sections of one rank are equal whichever axis is empty.
	a := NewSlice(Span(0, 3), Range{})
	b := NewSlice(Range{}, Span(7, 9))
	if !a.Equal(b) || !sliceEqualRef(a, b) {
		t.Fatalf("empty sections %v and %v should be equal", a, b)
	}
}

// TestSubRegularIsConstantTime cannot flake: copying the elements of
// these ranges out one by one does not finish inside the test timeout
// (or in memory).
func TestSubRegularIsConstantTime(t *testing.T) {
	const huge = 1 << 40
	r := Span(0, huge)
	lo, hi := r.Halves()
	if lo.Size()+hi.Size() != huge+1 || lo.Min() != 0 || hi.Max() != huge || hi.Min() != lo.Max()+1 {
		t.Fatalf("halves of a huge span: %v, %v", lo, hi)
	}
	if got := Reg(0, 2*huge, 2).Sub(1, huge); !got.IsRegular() || got.Min() != 2 || got.Max() != 2*huge-2 || got.Size() != huge-1 {
		t.Fatalf("Sub of a huge stepped range: %v", got)
	}
}

// EncodeAxis is internal/frame's encoding of an axis, which metadata
// stores. frame imports this package, so the external test package
// (frame_test.go) sets it.
var EncodeAxis func(Range) []byte

// TestSubIsListOfThePositions: Sub(i, j) is, field for field and byte
// for byte in stored metadata, what List builds from those elements.
func TestSubIsListOfThePositions(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for iter := 0; iter < 2000; iter++ {
		r := randomRange(rng)
		if iter%5 == 0 {
			r = rawList(r.Elements()...)
		}
		i := rng.Intn(r.Size() + 1)
		j := i + rng.Intn(r.Size()-i+1)
		got, want := r.Sub(i, j), List(r.Elements()[i:j]...)
		if got.regular != want.regular || !got.Equal(want) || !equalRef(got, want) {
			t.Fatalf("%v.Sub(%d,%d) = %#v, want %#v", r, i, j, got, want)
		}
		if gb, wb := EncodeAxis(got), EncodeAxis(want); !bytes.Equal(gb, wb) {
			t.Fatalf("%v.Sub(%d,%d) encodes as %x, List of the elements as %x", r, i, j, gb, wb)
		}
	}
	if !Span(0, 9).Sub(7, 3).Empty() {
		t.Fatal("Sub with i >= j should be empty")
	}
}

var sinkBool bool

// BenchmarkRangeEqual1D compares the two 1-D axis lengths the wall-clock
// benchmark and the BENCH files use; `make test` runs it once.
func BenchmarkRangeEqual1D(b *testing.B) {
	for _, n := range []int{131072, 262144} {
		r, q := Span(0, n-1), Span(0, n-1)
		b.Run(Span(0, n-1).String(), func(b *testing.B) {
			for b.Loop() {
				sinkBool = r.Equal(q)
			}
		})
	}
}
