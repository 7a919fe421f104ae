package rangeset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRegBasics(t *testing.T) {
	r := Reg(3, 11, 2) // 3 5 7 9 11
	if got := r.Size(); got != 5 {
		t.Fatalf("Size = %d, want 5", got)
	}
	want := []int{3, 5, 7, 9, 11}
	if got := r.Elements(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Elements = %v, want %v", got, want)
	}
	if r.Min() != 3 || r.Max() != 11 {
		t.Fatalf("Min/Max = %d/%d, want 3/11", r.Min(), r.Max())
	}
	if !r.IsRegular() {
		t.Fatal("Reg range not regular")
	}
	l, u, s := r.Bounds()
	if l != 3 || u != 11 || s != 2 {
		t.Fatalf("Bounds = %d:%d:%d, want 3:11:2", l, u, s)
	}
}

func TestRegTruncatesUpperBound(t *testing.T) {
	r := Reg(0, 10, 3) // 0 3 6 9: upper bound 10 is not an element
	if got := r.Max(); got != 9 {
		t.Fatalf("Max = %d, want 9", got)
	}
	if got := r.Size(); got != 4 {
		t.Fatalf("Size = %d, want 4", got)
	}
}

func TestEmptyRange(t *testing.T) {
	for _, r := range []Range{{}, Reg(5, 4, 1), Reg(0, -1, 3), List()} {
		if !r.Empty() || r.Size() != 0 {
			t.Errorf("%v should be empty", r)
		}
		if r.Contains(0) {
			t.Errorf("%v should contain nothing", r)
		}
	}
}

func TestRegPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reg(0, 10, 0) did not panic")
		}
	}()
	Reg(0, 10, 0)
}

func TestListCollapsesToRegular(t *testing.T) {
	r := List(2, 4, 6, 8)
	if !r.IsRegular() {
		t.Fatal("arithmetic-progression list should be stored regular")
	}
	q := List(1, 2, 4, 8)
	if q.IsRegular() {
		t.Fatal("non-arithmetic list should not be regular")
	}
	if got := q.Elements(); !reflect.DeepEqual(got, []int{1, 2, 4, 8}) {
		t.Fatalf("Elements = %v", got)
	}
}

func TestListPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("List(3, 3) did not panic")
		}
	}()
	List(3, 3)
}

func TestRankContains(t *testing.T) {
	cases := []Range{Reg(10, 100, 7), List(1, 5, 6, 42), Single(-3), Span(-5, 5)}
	for _, r := range cases {
		for i := 0; i < r.Size(); i++ {
			v := r.At(i)
			k, ok := r.Rank(v)
			if !ok || k != i {
				t.Errorf("%v.Rank(%d) = %d,%v; want %d,true", r, v, k, ok, i)
			}
			if !r.Contains(v) {
				t.Errorf("%v should contain %d", r, v)
			}
		}
		if r.Contains(r.Max() + 1) {
			t.Errorf("%v should not contain %d", r, r.Max()+1)
		}
		if r.Contains(r.Min() - 1) {
			t.Errorf("%v should not contain %d", r, r.Min()-1)
		}
	}
}

func TestIntersectRegularRegular(t *testing.T) {
	cases := []struct {
		a, b, want Range
	}{
		{Reg(0, 20, 2), Reg(0, 20, 3), Reg(0, 20, 6)},
		{Reg(1, 30, 4), Reg(3, 30, 6), Reg(9, 30, 12)}, // 1,5,9,... ∩ 3,9,15,... = 9,21,...
		{Reg(0, 10, 2), Reg(1, 11, 2), Range{}},        // evens ∩ odds
		{Span(0, 5), Span(3, 9), Span(3, 5)},
		{Span(0, 5), Span(6, 9), Range{}},
		{Single(4), Span(0, 10), Single(4)},
	}
	for _, c := range cases {
		got := c.a.Intersect(c.b)
		if !got.Equal(c.want) {
			t.Errorf("%v ∩ %v = %v, want %v", c.a, c.b, got, c.want)
		}
		// Intersection commutes.
		if !c.b.Intersect(c.a).Equal(c.want) {
			t.Errorf("%v ∩ %v not commutative", c.b, c.a)
		}
	}
}

func TestIntersectIrregular(t *testing.T) {
	a := List(1, 4, 6, 9, 15)
	b := Reg(0, 20, 3) // 0 3 6 9 12 15 18
	want := List(6, 9, 15)
	if got := a.Intersect(b); !got.Equal(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got := b.Intersect(a); !got.Equal(want) {
		t.Fatalf("reversed: got %v, want %v", got, want)
	}
}

// randomRange builds an arbitrary range (regular or irregular) from a
// seeded source, bounded to a small universe so intersections are
// non-trivially exercised.
func randomRange(rng *rand.Rand) Range {
	if rng.Intn(2) == 0 {
		lo := rng.Intn(40) - 20
		n := rng.Intn(15)
		step := 1 + rng.Intn(5)
		if n == 0 {
			return Range{}
		}
		return Reg(lo, lo+(n-1)*step, step)
	}
	seen := map[int]bool{}
	for i, n := 0, rng.Intn(12); i < n; i++ {
		seen[rng.Intn(60)-30] = true
	}
	var v []int
	for k := range seen {
		v = append(v, k)
	}
	// insertion sort (tiny n)
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	return List(v...)
}

// naiveIntersect is the reference model: set intersection on materialized
// elements.
func naiveIntersect(a, b Range) []int {
	in := map[int]bool{}
	for _, v := range a.Elements() {
		in[v] = true
	}
	var out []int
	for _, v := range b.Elements() {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}

func TestIntersectMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := randomRange(rng), randomRange(rng)
		got := a.Intersect(b).Elements()
		want := naiveIntersect(a, b)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: %v ∩ %v = %v, want %v", i, a, b, got, want)
		}
	}
}

func TestHalvesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		r := randomRange(rng)
		lo, hi := r.Halves()
		if lo.Size()+hi.Size() != r.Size() {
			t.Fatalf("halves sizes %d+%d != %d for %v", lo.Size(), hi.Size(), r.Size(), r)
		}
		if r.Size() > 1 {
			if lo.Size() != (r.Size()+1)/2 {
				t.Fatalf("lower half of %v has %d elements, want ceil(%d/2)", r, lo.Size(), r.Size())
			}
			if lo.Max() >= hi.Min() {
				t.Fatalf("halves of %v not ordered: %v, %v", r, lo, hi)
			}
		}
		// Concatenation preserves the element sequence.
		got := append(lo.Elements(), hi.Elements()...)
		if !reflect.DeepEqual(got, r.Elements()) {
			t.Fatalf("halves of %v reorder elements: %v", r, got)
		}
	}
}

func TestShift(t *testing.T) {
	r := List(1, 2, 5)
	if got := r.Shift(10); !got.Equal(List(11, 12, 15)) {
		t.Fatalf("Shift = %v", got)
	}
	q := Reg(0, 8, 2)
	if got := q.Shift(-3); !got.Equal(Reg(-3, 5, 2)) {
		t.Fatalf("Shift = %v", got)
	}
	if !(Range{}).Shift(5).Empty() {
		t.Fatal("shift of empty range should be empty")
	}
}

func TestRangeString(t *testing.T) {
	cases := []struct {
		r    Range
		want string
	}{
		{Span(0, 4), "0:4"},
		{Reg(0, 9, 3), "0:9:3"},
		{List(1, 2, 4), "[1 2 4]"},
		{Range{}, "∅"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

// Property: intersection is idempotent, commutative, and bounded by its
// operands, for arbitrary regular ranges generated by testing/quick.
func TestIntersectQuickProperties(t *testing.T) {
	f := func(lo1 int8, n1 uint8, s1 uint8, lo2 int8, n2 uint8, s2 uint8) bool {
		a := regFrom(lo1, n1, s1)
		b := regFrom(lo2, n2, s2)
		ab := a.Intersect(b)
		if !ab.Equal(b.Intersect(a)) {
			return false
		}
		if !ab.Intersect(a).Equal(ab) || !ab.Intersect(b).Equal(ab) {
			return false
		}
		for _, v := range ab.Elements() {
			if !a.Contains(v) || !b.Contains(v) {
				return false
			}
		}
		return ab.Size() <= a.Size() && ab.Size() <= b.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func regFrom(lo int8, n uint8, s uint8) Range {
	count := int(n%32) + 1
	step := int(s%7) + 1
	l := int(lo)
	return Reg(l, l+(count-1)*step, step)
}

func TestEgcd(t *testing.T) {
	for _, c := range [][2]int{{12, 18}, {7, 13}, {100, 36}, {5, 5}, {1, 9}} {
		g, x, y := egcd(c[0], c[1])
		if c[0]%g != 0 || c[1]%g != 0 {
			t.Errorf("egcd(%d,%d): %d does not divide both", c[0], c[1], g)
		}
		if c[0]*x+c[1]*y != g {
			t.Errorf("egcd(%d,%d): Bezout identity fails: %d*%d+%d*%d != %d",
				c[0], c[1], c[0], x, c[1], y, g)
		}
	}
}

// Shift returns the range with every element displaced by delta.
func (r Range) Shift(delta int) Range {
	if r.Empty() {
		return Range{}
	}
	if r.regular {
		return Reg(r.lo+delta, r.hi+delta, r.step)
	}
	out := make([]int, len(r.idx))
	for i, v := range r.idx {
		out[i] = v + delta
	}
	return fromSorted(out)
}
