package rangeset

import (
	"math/rand"
	"reflect"
	"testing"
)

// paperSlice is the example slice (3) from Figure 2 of the paper:
// rows (8, 9, 10, 12) × columns (16, 18, 19, 20, 22).
func paperSlice() Slice {
	return NewSlice(List(8, 9, 10, 12), List(16, 18, 19, 20, 22))
}

func TestSliceSizeRank(t *testing.T) {
	s := paperSlice()
	if s.Rank() != 2 {
		t.Fatalf("Rank = %d, want 2", s.Rank())
	}
	if s.Size() != 20 {
		t.Fatalf("Size = %d, want 4*5 = 20", s.Size())
	}
	if s.Empty() {
		t.Fatal("paper slice should not be empty")
	}
}

func TestBox(t *testing.T) {
	s := Box([]int{0, 0, 0}, []int{3, 4, 5})
	if s.Size() != 4*5*6 {
		t.Fatalf("Size = %d, want 120", s.Size())
	}
	if !s.Contains([]int{3, 4, 5}) || s.Contains([]int{4, 0, 0}) {
		t.Fatal("Contains wrong at bounds")
	}
}

func TestSliceIntersect(t *testing.T) {
	a := Box([]int{0, 0}, []int{9, 9})
	b := Box([]int{5, 7}, []int{14, 12})
	got := a.Intersect(b)
	want := Box([]int{5, 7}, []int{9, 9})
	if !got.Equal(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Disjoint along one axis empties the whole section.
	c := Box([]int{20, 0}, []int{25, 9})
	if !a.Intersect(c).Empty() {
		t.Fatal("disjoint intersection should be empty")
	}
}

func TestOffsetCoordRoundTrip(t *testing.T) {
	s := paperSlice()
	for _, order := range []Order{ColMajor, RowMajor} {
		for off := 0; off < s.Size(); off++ {
			c := s.Coord(off, order)
			got, ok := s.Offset(c, order)
			if !ok || got != off {
				t.Fatalf("%v: Offset(Coord(%d)) = %d,%v", order, off, got, ok)
			}
		}
	}
}

func TestColMajorOrderMatchesFortran(t *testing.T) {
	// A 2x3 dense section: column-major enumerates down columns first.
	s := Box([]int{0, 0}, []int{1, 2})
	var got [][]int
	s.Each(ColMajor, func(c []int) {
		got = append(got, append([]int(nil), c...))
	})
	want := [][]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("column-major order = %v, want %v", got, want)
	}
}

func TestRowMajorOrderMatchesC(t *testing.T) {
	s := Box([]int{0, 0}, []int{1, 2})
	var got [][]int
	s.Each(RowMajor, func(c []int) {
		got = append(got, append([]int(nil), c...))
	})
	want := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("row-major order = %v, want %v", got, want)
	}
}

func TestEachAgreesWithCoord(t *testing.T) {
	s := NewSlice(Reg(0, 6, 2), List(1, 5, 6), Span(10, 12))
	for _, order := range []Order{ColMajor, RowMajor} {
		i := 0
		s.Each(order, func(c []int) {
			want := s.Coord(i, order)
			if !reflect.DeepEqual(c, want) {
				t.Fatalf("%v: element %d = %v, want %v", order, i, c, want)
			}
			i++
		})
		if i != s.Size() {
			t.Fatalf("%v: Each visited %d elements, want %d", order, i, s.Size())
		}
	}
}

func TestHalvesOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 500; iter++ {
		s := randomSlice(rng, 1+rng.Intn(3))
		if s.Empty() {
			continue
		}
		for _, order := range []Order{ColMajor, RowMajor} {
			lo, hi := s.Halves(order)
			if lo.Size()+hi.Size() != s.Size() {
				t.Fatalf("halves of %v lose elements", s)
			}
			if hi.Empty() {
				if s.Size() > 1 {
					t.Fatalf("splittable section %v not split", s)
				}
				continue
			}
			// Every element of lo precedes every element of hi in the
			// linearization of s.
			maxLo, minHi := -1, s.Size()
			lo.Each(order, func(c []int) {
				off, ok := s.Offset(c, order)
				if !ok {
					t.Fatalf("lo element %v outside parent %v", c, s)
				}
				if off > maxLo {
					maxLo = off
				}
			})
			hi.Each(order, func(c []int) {
				off, ok := s.Offset(c, order)
				if !ok {
					t.Fatalf("hi element %v outside parent %v", c, s)
				}
				if off < minHi {
					minHi = off
				}
			})
			if maxLo >= minHi {
				t.Fatalf("%v: halves overlap in %v order: maxLo=%d minHi=%d (%v | %v)",
					s, order, maxLo, minHi, lo, hi)
			}
		}
	}
}

func randomSlice(rng *rand.Rand, rank int) Slice {
	r := make([]Range, rank)
	for i := range r {
		r[i] = randomRange(rng)
		if r[i].Empty() {
			r[i] = Single(rng.Intn(10))
		}
	}
	return Slice{r: r}
}

func TestPartitionCoversInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 300; iter++ {
		s := randomSlice(rng, 1+rng.Intn(3))
		m := 1 + rng.Intn(9)
		for _, order := range []Order{ColMajor, RowMajor} {
			pieces := s.Partition(m, order)
			if len(pieces) < m && len(pieces) < s.Size() {
				t.Fatalf("Partition(%d) of %v (size %d) gave only %d pieces",
					m, s, s.Size(), len(pieces))
			}
			// Concatenated enumerations must equal the parent enumeration:
			// this is the property that makes streamed pieces appendable.
			var got [][]int
			for _, p := range pieces {
				p.Each(order, func(c []int) {
					got = append(got, append([]int(nil), c...))
				})
			}
			var want [][]int
			s.Each(order, func(c []int) {
				want = append(want, append([]int(nil), c...))
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Partition(%d, %v) of %v reorders stream", m, order, s)
			}
		}
	}
}

func TestPartitionSinglePiece(t *testing.T) {
	s := paperSlice()
	p := s.Partition(1, ColMajor)
	if len(p) != 1 || !p[0].Equal(s) {
		t.Fatalf("Partition(1) = %v", p)
	}
}

func TestPartitionBeyondElements(t *testing.T) {
	s := Box([]int{0, 0}, []int{1, 1}) // 4 elements
	p := s.Partition(64, ColMajor)
	if len(p) != 4 {
		t.Fatalf("partitioning 4 elements into 64 pieces gave %d", len(p))
	}
	for _, q := range p {
		if q.Size() != 1 {
			t.Fatalf("piece %v not single element", q)
		}
	}
}

func TestEmptyLike(t *testing.T) {
	s := paperSlice()
	e := s.EmptyLike()
	if e.Rank() != s.Rank() || !e.Empty() {
		t.Fatalf("EmptyLike = %v", e)
	}
}

func TestSliceString(t *testing.T) {
	s := NewSlice(Span(0, 3), Reg(2, 10, 4))
	if got := s.String(); got != "(0:3, 2:10:4)" {
		t.Fatalf("String = %q", got)
	}
}

func TestIntersectRankMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rank mismatch did not panic")
		}
	}()
	NewSlice(Span(0, 1)).Intersect(Box([]int{0, 0}, []int{1, 1}))
}

// Ranges returns a copy of the per-axis ranges.
func (s Slice) Ranges() []Range { return append([]Range(nil), s.r...) }
