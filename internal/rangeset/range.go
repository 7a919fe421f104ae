// Package rangeset implements the range and slice abstractions of the DRMS
// distributed-array model (Naik, Midkiff, Moreira; SC'97, §3.1).
//
// A Range is a monotonically increasing ordered set of integers. DRMS
// supports both regular ranges, expressible as l:u:s triples, and
// irregular ranges given by explicit index lists. A Slice is an ordered
// set of d ranges and describes a (possibly irregular) section of a
// d-dimensional array. The package provides the operations the streaming
// and redistribution layers are built on: intersection, sizing,
// linearization order, half-splitting, and the recursive partition
// algorithm of Figure 5(a) of the paper.
package rangeset

import (
	"fmt"
	"sort"
	"strings"
)

// Range is a monotonically increasing ordered set of integers. The zero
// value is the empty range.
//
// Internally a range is either regular (lo:hi:step with hi adjusted to the
// last actual element) or an explicit sorted index list. The distinction
// is an implementation detail: all operations behave identically for both
// forms, and regular form is preserved where possible for compactness.
type Range struct {
	regular bool
	lo, hi  int // inclusive; hi is the last element (already aligned to step)
	step    int
	n       int   // number of elements (regular form)
	idx     []int // irregular form: strictly increasing
}

// Reg returns the regular range l:u:s — every integer l, l+s, l+2s, ...
// not exceeding u. It panics if s <= 0. The range is empty if u < l.
func Reg(l, u, s int) Range {
	if s <= 0 {
		panic(fmt.Sprintf("rangeset: non-positive step %d", s))
	}
	if u < l {
		return Range{}
	}
	n := (u-l)/s + 1
	return Range{regular: true, lo: l, hi: l + (n-1)*s, step: s, n: n}
}

// Span returns the dense regular range l:u:1.
func Span(l, u int) Range { return Reg(l, u, 1) }

// Single returns the one-element range {v}.
func Single(v int) Range { return Reg(v, v, 1) }

// List returns the range holding exactly the given indices. The indices
// must be strictly increasing; List panics otherwise. If the indices form
// an arithmetic progression the result is stored in regular form.
func List(indices ...int) Range {
	for i := 1; i < len(indices); i++ {
		if indices[i] <= indices[i-1] {
			panic(fmt.Sprintf("rangeset: indices not strictly increasing at %d: %d after %d",
				i, indices[i], indices[i-1]))
		}
	}
	return fromSorted(append([]int(nil), indices...))
}

// fromSorted builds a Range from a strictly increasing slice, taking
// ownership of it. Arithmetic progressions collapse to regular form.
func fromSorted(v []int) Range {
	switch len(v) {
	case 0:
		return Range{}
	case 1:
		return Single(v[0])
	}
	step := v[1] - v[0]
	reg := true
	for i := 2; i < len(v); i++ {
		if v[i]-v[i-1] != step {
			reg = false
			break
		}
	}
	if reg {
		return Reg(v[0], v[len(v)-1], step)
	}
	return Range{idx: v}
}

// Size returns |r|, the number of elements.
func (r Range) Size() int {
	if r.regular {
		return r.n
	}
	return len(r.idx)
}

// Empty reports whether the range has no elements.
func (r Range) Empty() bool { return r.Size() == 0 }

// At returns the i-th smallest element (0-based). It panics if i is out
// of bounds.
func (r Range) At(i int) int {
	if i < 0 || i >= r.Size() {
		panic(fmt.Sprintf("rangeset: index %d out of bounds for range of size %d", i, r.Size()))
	}
	if r.regular {
		return r.lo + i*r.step
	}
	return r.idx[i]
}

// Min returns the smallest element. It panics on an empty range.
func (r Range) Min() int { return r.At(0) }

// Max returns the largest element. It panics on an empty range.
func (r Range) Max() int { return r.At(r.Size() - 1) }

// Contains reports whether v is an element of r.
func (r Range) Contains(v int) bool {
	_, ok := r.Rank(v)
	return ok
}

// Rank returns the position of v within r (so r.At(rank) == v) and
// whether v is present.
func (r Range) Rank(v int) (int, bool) {
	if r.Size() == 0 {
		return 0, false
	}
	if r.regular {
		if v < r.lo || v > r.hi || (v-r.lo)%r.step != 0 {
			return 0, false
		}
		return (v - r.lo) / r.step, true
	}
	i := sort.SearchInts(r.idx, v)
	if i < len(r.idx) && r.idx[i] == v {
		return i, true
	}
	return 0, false
}

// Elements returns all elements in increasing order, in a freshly
// allocated slice.
func (r Range) Elements() []int {
	out := make([]int, r.Size())
	if r.regular {
		for i := range out {
			out[i] = r.lo + i*r.step
		}
	} else {
		copy(out, r.idx)
	}
	return out
}

// Equal reports whether r and q contain exactly the same elements.
func (r Range) Equal(q Range) bool {
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

// Intersect returns r * q, the range of all elements common to both.
func (r Range) Intersect(q Range) Range {
	if r.Empty() || q.Empty() {
		return Range{}
	}
	if r.regular && q.regular {
		return intersectRegular(r, q)
	}
	// Two-pointer merge over sorted element sequences, walking the
	// smaller range and probing the larger for cache efficiency.
	small, large := r, q
	if small.Size() > large.Size() {
		small, large = large, small
	}
	var out []int
	for i, n := 0, small.Size(); i < n; i++ {
		v := small.At(i)
		if large.Contains(v) {
			out = append(out, v)
		}
	}
	return fromSorted(out)
}

// intersectRegular intersects two arithmetic progressions using the
// extended Euclidean algorithm: the result, if non-empty, is itself an
// arithmetic progression with step lcm(s1, s2).
func intersectRegular(r, q Range) Range {
	// Seek x with x ≡ r.lo (mod r.step), x ≡ q.lo (mod q.step).
	g, p, _ := egcd(r.step, q.step)
	diff := q.lo - r.lo
	if diff%g != 0 {
		return Range{} // progressions never meet
	}
	lcm := r.step / g * q.step
	// x = r.lo + r.step * p * (diff/g)  (mod lcm), normalized upward.
	x := r.lo + mulmod(r.step, mulmod(p, diff/g, lcm), lcm)
	x = normalize(x, max(r.lo, q.lo), lcm)
	hi := min(r.hi, q.hi)
	if x > hi {
		return Range{}
	}
	return Reg(x, hi, lcm)
}

// egcd returns g = gcd(a,b) and x, y with a*x + b*y = g.
func egcd(a, b int) (g, x, y int) {
	if b == 0 {
		return a, 1, 0
	}
	g, x1, y1 := egcd(b, a%b)
	return g, y1, x1 - (a/b)*y1
}

// mulmod returns (a*b) mod m with the result in [0, m).
func mulmod(a, b, m int) int {
	v := (a % m) * (b % m) % m
	if v < 0 {
		v += m
	}
	return v
}

// normalize returns the smallest value >= floor that is congruent to x
// modulo step.
func normalize(x, floor, step int) int {
	if x >= floor {
		x -= (x - floor) / step * step
		return x
	}
	x += ((floor - x) + step - 1) / step * step
	return x
}

// Halves splits r into its lower and upper halves: lo(r) holds the first
// ceil(|r|/2) elements and hi(r) the remainder, matching the paper's
// partitioning functions. Splitting an empty or single-element range
// yields that range and an empty upper half.
func (r Range) Halves() (lo, hi Range) {
	n := r.Size()
	if n <= 1 {
		return r, Range{}
	}
	k := (n + 1) / 2
	return r.Sub(0, k), r.Sub(k, n)
}

// Sub returns the sub-range holding the elements at positions [i, j) of
// r, in the form List would give those elements: a stretch of a regular
// range costs O(1) whatever its length. It panics if a position is out
// of bounds; i >= j yields the empty range.
func (r Range) Sub(i, j int) Range {
	switch {
	case i >= j:
		return Range{}
	case j-i == 1:
		return Single(r.At(i))
	case r.regular:
		return Reg(r.At(i), r.At(j-1), r.step)
	}
	return fromSorted(append([]int(nil), r.idx[i:j]...))
}

// IsRegular reports whether the range is stored as an l:u:s triple.
func (r Range) IsRegular() bool { return r.regular || r.Size() == 0 }

// Bounds returns the l, u, s triple for a regular range. It panics for
// irregular ranges; callers should check IsRegular first.
func (r Range) Bounds() (l, u, s int) {
	if !r.regular {
		panic("rangeset: Bounds on irregular range")
	}
	return r.lo, r.hi, r.step
}

// String renders the range compactly: "l:u:s" for regular ranges (step
// omitted when 1), "[a b c]" for lists, "∅" when empty.
func (r Range) String() string {
	if r.Empty() {
		return "∅"
	}
	if r.regular {
		if r.n == 1 {
			return fmt.Sprintf("%d", r.lo)
		}
		if r.step == 1 {
			return fmt.Sprintf("%d:%d", r.lo, r.hi)
		}
		return fmt.Sprintf("%d:%d:%d", r.lo, r.hi, r.step)
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range r.idx {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte(']')
	return b.String()
}
