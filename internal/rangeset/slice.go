package rangeset

import (
	"fmt"
	"strings"
)

// Order selects the linearization convention used when the elements of an
// array section are streamed (§3.2). ColMajor is FORTRAN-style: the first
// axis varies fastest. RowMajor is C-style: the last axis varies fastest.
type Order int

const (
	ColMajor Order = iota
	RowMajor
)

func (o Order) String() string {
	if o == ColMajor {
		return "column-major"
	}
	return "row-major"
}

// Slice is an ordered set of d ranges describing a section of a
// d-dimensional array; d is the rank of the slice. The zero value is the
// rank-0 slice, whose size is 1 (the scalar section) — callers working
// with arrays always use rank >= 1.
type Slice struct {
	r []Range
}

// NewSlice builds a slice from the given per-axis ranges.
func NewSlice(ranges ...Range) Slice {
	return Slice{r: append([]Range(nil), ranges...)}
}

// Box returns the dense rectangular slice [lo[0]:hi[0], ..., lo[d-1]:hi[d-1]]
// with unit step along every axis. lo and hi must have equal length.
func Box(lo, hi []int) Slice {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("rangeset: Box bounds of different ranks %d, %d", len(lo), len(hi)))
	}
	r := make([]Range, len(lo))
	for i := range lo {
		r[i] = Span(lo[i], hi[i])
	}
	return Slice{r: r}
}

// Rank returns |s|, the number of ranges (axes) of the slice.
func (s Slice) Rank() int { return len(s.r) }

// Axis returns the range along axis i (0-based).
func (s Slice) Axis(i int) Range { return s.r[i] }

// Size returns the number of elements of the section: the product of the
// per-axis range sizes.
func (s Slice) Size() int {
	n := 1
	for _, r := range s.r {
		n *= r.Size()
	}
	return n
}

// Empty reports whether the section holds no elements (any axis empty).
func (s Slice) Empty() bool {
	for _, r := range s.r {
		if r.Empty() {
			return true
		}
	}
	return len(s.r) > 0 && s.Size() == 0
}

// EmptyLike returns the empty slice of the same rank as s: every axis the
// empty range. The parstream algorithm resets writer slices to this value
// at the start of each round (Fig. 5b).
func (s Slice) EmptyLike() Slice {
	return Slice{r: make([]Range, len(s.r))}
}

// Shape returns the per-axis sizes.
func (s Slice) Shape() []int {
	out := make([]int, len(s.r))
	for i, r := range s.r {
		out[i] = r.Size()
	}
	return out
}

// Intersect returns s * t: the slice whose axis-i range is s.Axis(i) *
// t.Axis(i). Both slices must have the same rank.
func (s Slice) Intersect(t Slice) Slice {
	if len(s.r) != len(t.r) {
		panic(fmt.Sprintf("rangeset: intersecting slices of ranks %d and %d", len(s.r), len(t.r)))
	}
	out := make([]Range, len(s.r))
	for i := range s.r {
		out[i] = s.r[i].Intersect(t.r[i])
		if out[i].Empty() {
			// Short-circuit: one empty axis empties the section, but
			// preserve rank so callers can keep composing.
			for j := i + 1; j < len(s.r); j++ {
				out[j] = Range{}
			}
			return Slice{r: out}
		}
	}
	return Slice{r: out}
}

// Equal reports whether s and t describe exactly the same section.
func (s Slice) Equal(t Slice) bool {
	if len(s.r) != len(t.r) {
		return false
	}
	if s.Empty() && t.Empty() {
		return true
	}
	for i := range s.r {
		if !s.r[i].Equal(t.r[i]) {
			return false
		}
	}
	return true
}

// Within reports whether every element of s is an element of t, axis by
// axis (Range.Within), without building the intersection. An empty s is
// within any slice of its rank; a slice of another rank is within
// nothing.
func (s Slice) Within(t Slice) bool {
	if len(s.r) != len(t.r) {
		return false
	}
	if s.Empty() {
		return true
	}
	for i := range s.r {
		if !s.r[i].Within(t.r[i]) {
			return false
		}
	}
	return true
}

// Contains reports whether the coordinate c (one index per axis) is an
// element of the section.
func (s Slice) Contains(c []int) bool {
	if len(c) != len(s.r) {
		return false
	}
	for i, v := range c {
		if !s.r[i].Contains(v) {
			return false
		}
	}
	return true
}

// Offset returns the position of coordinate c in the linearization of s
// under the given order, and whether c belongs to s. Position 0 is the
// first streamed element.
func (s Slice) Offset(c []int, order Order) (int, bool) {
	if len(c) != len(s.r) {
		return 0, false
	}
	off := 0
	if order == ColMajor {
		stride := 1
		for i := 0; i < len(s.r); i++ {
			k, ok := s.r[i].Rank(c[i])
			if !ok {
				return 0, false
			}
			off += k * stride
			stride *= s.r[i].Size()
		}
	} else {
		stride := 1
		for i := len(s.r) - 1; i >= 0; i-- {
			k, ok := s.r[i].Rank(c[i])
			if !ok {
				return 0, false
			}
			off += k * stride
			stride *= s.r[i].Size()
		}
	}
	return off, true
}

// Coord returns the coordinate at linear position off in the
// linearization of s under the given order (the inverse of Offset).
func (s Slice) Coord(off int, order Order) []int {
	if off < 0 || off >= s.Size() {
		panic(fmt.Sprintf("rangeset: linear offset %d out of bounds for section of size %d", off, s.Size()))
	}
	c := make([]int, len(s.r))
	if order == ColMajor {
		for i := 0; i < len(s.r); i++ {
			n := s.r[i].Size()
			c[i] = s.r[i].At(off % n)
			off /= n
		}
	} else {
		for i := len(s.r) - 1; i >= 0; i-- {
			n := s.r[i].Size()
			c[i] = s.r[i].At(off % n)
			off /= n
		}
	}
	return c
}

// Each invokes f for every coordinate of the section in linearization
// order. The coordinate slice is reused across calls; f must copy it if
// it retains it. Each is the reference (slow) enumerator used by tests
// and by irregular-section fallback paths.
func (s Slice) Each(order Order, f func(c []int)) {
	if s.Empty() {
		return
	}
	n := s.Size()
	c := make([]int, len(s.r))
	pos := make([]int, len(s.r)) // per-axis rank counters
	for i := range s.r {
		c[i] = s.r[i].At(0)
	}
	for k := 0; k < n; k++ {
		f(c)
		// Advance the fastest-varying axis, carrying as needed.
		if order == ColMajor {
			for i := 0; i < len(s.r); i++ {
				pos[i]++
				if pos[i] < s.r[i].Size() {
					c[i] = s.r[i].At(pos[i])
					break
				}
				pos[i] = 0
				c[i] = s.r[i].At(0)
			}
		} else {
			for i := len(s.r) - 1; i >= 0; i-- {
				pos[i]++
				if pos[i] < s.r[i].Size() {
					c[i] = s.r[i].At(pos[i])
					break
				}
				pos[i] = 0
				c[i] = s.r[i].At(0)
			}
		}
	}
}

// Halves splits the section into lower and upper halves such that, in the
// given linearization order, every element of the lower half precedes
// every element of the upper half (the lo/hi functions of §3.2). The
// split bisects the slowest-varying axis whose range holds more than one
// element. A single-element (or empty) section returns itself and an
// empty upper half.
func (s Slice) Halves(order Order) (lo, hi Slice) {
	axes := make([]int, 0, len(s.r))
	if order == ColMajor {
		for i := len(s.r) - 1; i >= 0; i-- {
			axes = append(axes, i) // slowest-varying first
		}
	} else {
		for i := 0; i < len(s.r); i++ {
			axes = append(axes, i)
		}
	}
	for _, ax := range axes {
		if s.r[ax].Size() > 1 {
			rlo, rhi := s.r[ax].Halves()
			lo = Slice{r: append([]Range(nil), s.r...)}
			hi = Slice{r: append([]Range(nil), s.r...)}
			lo.r[ax] = rlo
			hi.r[ax] = rhi
			return lo, hi
		}
	}
	return s, s.EmptyLike()
}

// Partition recursively bisects the section (algorithm partition,
// Fig. 5a) until at least m pieces exist or no piece can be split
// further. The returned pieces are pairwise disjoint, cover s exactly,
// and are ordered so that their concatenated linearizations equal the
// linearization of s. m <= 1 returns s unsplit.
func (s Slice) Partition(m int, order Order) []Slice {
	if s.Empty() {
		return nil
	}
	pieces := []Slice{s}
	for len(pieces) < m {
		next := make([]Slice, 0, 2*len(pieces))
		split := false
		for _, p := range pieces {
			lo, hi := p.Halves(order)
			if hi.Empty() {
				next = append(next, p)
				continue
			}
			next = append(next, lo, hi)
			split = true
		}
		pieces = next
		if !split {
			break // every piece is a single element
		}
	}
	return pieces
}

// String renders the slice as "(r1, r2, ..., rd)".
func (s Slice) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, r := range s.r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.String())
	}
	b.WriteByte(')')
	return b.String()
}
