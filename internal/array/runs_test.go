package array

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"drms/internal/rangeset"
)

// The tests below hold storageRuns, the enumerator every mover and plan
// is built on, to an oracle that shares none of its code: rangeset.Each
// and Slice.Offset, one element at a time. The round-trip tests elsewhere
// in this package cannot do that — their references pack through the
// enumerator too.

// byteSource deals out small integers from a byte string, zeros once it
// is spent, so that one decoder serves the seeded random cases and the
// fuzzer's mutated inputs alike.
type byteSource struct{ b []byte }

func (s *byteSource) next(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0]) % n
	s.b = s.b[1:]
	return v
}

// decodeRange draws a storage axis of 1–6 values: dense, stepped, or an
// index list with gaps of 1–3 (so it has both consecutive stretches and
// holes).
func decodeRange(s *byteSource) rangeset.Range {
	lo, n := s.next(5)-2, 1+s.next(6)
	switch s.next(3) {
	case 0:
		return rangeset.Span(lo, lo+n-1)
	case 1:
		step := 2 + s.next(2)
		return rangeset.Reg(lo, lo+(n-1)*step, step)
	}
	v := make([]int, n)
	for i := range v {
		v[i] = lo
		lo += 1 + s.next(3)
	}
	return rangeset.List(v...)
}

// decodeSubRange draws a section axis from the storage axis st: all of
// it, one element, a window of positions taken at a stride, an arbitrary
// (possibly empty) subset — or, rarely, a range drawn independently of
// st, which need not lie inside it.
func decodeSubRange(s *byteSource, st rangeset.Range) rangeset.Range {
	n := st.Size()
	switch s.next(9) {
	case 0, 1:
		return st
	case 2:
		return rangeset.Single(st.At(s.next(n)))
	case 3, 4, 5:
		i, step := s.next(n), 1+s.next(2)
		var v []int
		for j := i + s.next(n-i); i <= j; i += step {
			v = append(v, st.At(i))
		}
		return rangeset.List(v...)
	case 6, 7:
		var v []int
		for i := 0; i < n; i++ {
			if s.next(2) == 1 {
				v = append(v, st.At(i))
			}
		}
		return rangeset.List(v...)
	}
	return decodeRange(s)
}

// decodeRunsCase draws a space of rank 0–4, a section of the same rank,
// and one of the four (layout, order) pairs.
func decodeRunsCase(data []byte) (sec, space rangeset.Slice, layout, order rangeset.Order) {
	s := &byteSource{data}
	layout, order = rangeset.Order(s.next(2)), rangeset.Order(s.next(2))
	d := s.next(5)
	st, se := make([]rangeset.Range, d), make([]rangeset.Range, d)
	for i := range st {
		st[i] = decodeRange(s)
		se[i] = decodeSubRange(s, st[i])
	}
	return rangeset.NewSlice(se...), rangeset.NewSlice(st...), layout, order
}

// layoutStride is the distance between neighbours along axis ax in the
// layout linearization of space.
func layoutStride(space rangeset.Slice, layout rangeset.Order, ax int) int {
	stride := 1
	for i := 0; i < space.Rank(); i++ {
		if (layout == rangeset.ColMajor && i < ax) || (layout == rangeset.RowMajor && i > ax) {
			stride *= space.Axis(i).Size()
		}
	}
	return stride
}

// checkStorageRuns compares the runs storageRuns emits, expanded to
// element offsets, with the element-wise walk; a section with an element
// outside space must panic instead. It returns the runs and an error, not
// a failure, so the caller can say which case it was.
func checkStorageRuns(sec, space rangeset.Slice, layout, order rangeset.Order) (runs []xferRun, err error) {
	var want []int
	inside := true
	sec.Each(order, func(c []int) {
		o, ok := space.Offset(c, layout)
		inside = inside && ok
		want = append(want, o)
	})
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		storageRuns(sec, space, layout, order, func(off, n int) { runs = append(runs, xferRun{off, n}) })
		return false
	}()
	if !inside || panicked {
		if inside {
			return runs, fmt.Errorf("panicked on a section inside its storage")
		}
		if !panicked {
			return runs, fmt.Errorf("a section with elements outside storage was resolved to runs %v", runs)
		}
		return nil, nil
	}

	d := sec.Rank()
	stride := 1
	if layout != order && d > 1 {
		fast := 0
		if order == rangeset.RowMajor {
			fast = d - 1
		}
		stride = layoutStride(space, layout, fast)
		if layout == rangeset.ColMajor && stride != runStride(space, order) {
			return runs, fmt.Errorf("runStride %d, layout stride of the fast axis %d", runStride(space, order), stride)
		}
	} else {
		for i := 1; i < len(runs); i++ {
			if runs[i-1].off+runs[i-1].n == runs[i].off {
				return runs, fmt.Errorf("runs %v and %v abut: list %v is not maximal", runs[i-1], runs[i], runs)
			}
		}
	}
	if n := sumRuns(runs); n != sec.Size() {
		return runs, fmt.Errorf("runs cover %d elements, section has %d", n, sec.Size())
	}
	i := 0
	for _, r := range runs {
		if r.n <= 0 {
			return runs, fmt.Errorf("empty run %v", r)
		}
		for k := 0; k < r.n; k++ {
			if got := r.off + k*stride; got != want[i] {
				return runs, fmt.Errorf("element %d: run %v (stride %d) puts it at offset %d, element-wise walk at %d", i, r, stride, got, want[i])
			}
			i++
		}
	}
	return runs, nil
}

// runsCaseSeeds are the decoder inputs of TestStorageRunsMatchesElementwise
// that FuzzStorageRuns starts from: 4-D cases of every (layout, order)
// pair, a rank 0, a rank 1, and a section equal to its storage.
func runsCaseSeeds() [][]byte {
	seeds := [][]byte{
		nil,                   // rank 0
		{0, 0, 0},             // rank 0, explicit
		{0, 1, 1, 2, 5, 0, 0}, // rank 1, dense, section = storage
		{1, 0, 4, 2, 5, 0, 0, 2, 5, 0, 0, 2, 5, 0, 0, 2, 5, 0, 0}, // 4-D dense, section = storage, row-major layout
	}
	rng := rand.New(rand.NewSource(191))
	for lo := 0; lo < 4; lo++ {
		b := make([]byte, 64)
		rng.Read(b)
		b[0], b[1], b[2] = byte(lo&1), byte(lo>>1), 4
		seeds = append(seeds, b)
	}
	return seeds
}

// TestStorageRunsMatchesElementwise is the differential test of the
// enumerator: random ranks 0–4, dense, stepped and index-list axes on
// both sides, all four (layout, order) pairs, sections equal to their
// storage, single-element, empty and escaping ones.
func TestStorageRunsMatchesElementwise(t *testing.T) {
	cases := runsCaseSeeds()
	rng := rand.New(rand.NewSource(192))
	for i := 0; i < 4000; i++ {
		b := make([]byte, 80)
		rng.Read(b)
		cases = append(cases, b)
	}
	var ranks [5]int
	var empty, single, whole, escaping, merged int
	for _, b := range cases {
		sec, space, layout, order := decodeRunsCase(b)
		runs, err := checkStorageRuns(sec, space, layout, order)
		if err != nil {
			t.Fatalf("section %v of storage %v, layout %v, order %v: %v", sec, space, layout, order, err)
		}
		ranks[sec.Rank()]++
		switch {
		case sec.Empty():
			empty++
		case sec.Intersect(space).Size() != sec.Size():
			escaping++
		case sec.Size() == 1:
			single++
		case sec.Equal(space):
			whole++
		}
		if runs != nil && sec.Rank() > 1 && layout == order && len(runs) < fastAxisRuns(sec, order) {
			merged++
		}
	}
	t.Logf("%d cases by rank %v: %d empty, %d single-element, %d whole-storage, %d escaping, %d with merged runs",
		len(cases), ranks, empty, single, whole, escaping, merged)
	for r, n := range ranks {
		if n == 0 {
			t.Errorf("no case of rank %d", r)
		}
	}
	if empty == 0 || single == 0 || whole == 0 || escaping == 0 || merged == 0 {
		t.Error("a kind of section the test promises was never drawn")
	}
}

// FuzzStorageRuns mutates the decoder's input. Like rangeset's
// FuzzIntersect, plain `go test` (so `make test`) runs its seeds only;
// `go test -run '^$' -fuzz FuzzStorageRuns ./internal/array` searches.
func FuzzStorageRuns(f *testing.F) {
	for _, b := range runsCaseSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sec, space, layout, order := decodeRunsCase(data)
		if _, err := checkStorageRuns(sec, space, layout, order); err != nil {
			t.Fatalf("section %v of storage %v, layout %v, order %v: %v", sec, space, layout, order, err)
		}
	})
}

// TestSectionRunsPanicsOutsideStorage keeps the enumerator's guard: a
// section that is not inside the storage it is resolved against is a
// planning bug and must not produce offsets — wherever the first missing
// element sits. A run that only leaves storage after its first element
// used to be resolved: the second case returned [{10 8}], eight elements
// from offset 10 of a 16-element storage.
func TestSectionRunsPanicsOutsideStorage(t *testing.T) {
	box := rangeset.Box
	gap := rangeset.NewSlice(rangeset.List(0, 1, 2, 4, 5), rangeset.Span(0, 3))
	for _, tc := range []struct {
		name          string
		sec, space    rangeset.Slice
		layout, order rangeset.Order
	}{
		{"non-fast coordinate missing", box([]int{2, 2}, []int{3, 4}), box([]int{0, 0}, []int{3, 3}), rangeset.ColMajor, rangeset.ColMajor},
		{"run leaves storage after its start", box([]int{2, 2}, []int{5, 3}), box([]int{0, 0}, []int{3, 3}), rangeset.ColMajor, rangeset.ColMajor},
		{"run leaves a wider storage's column", box([]int{2, 2}, []int{5, 3}), box([]int{0, 0}, []int{3, 9}), rangeset.ColMajor, rangeset.ColMajor},
		{"row-major run leaves storage after its start", box([]int{2, 2}, []int{3, 5}), box([]int{0, 0}, []int{3, 3}), rangeset.ColMajor, rangeset.RowMajor},
		{"run crosses a gap of an index-list axis", rangeset.NewSlice(rangeset.Span(1, 4), rangeset.Span(0, 3)), gap, rangeset.ColMajor, rangeset.ColMajor},
		{"non-fast coordinate in a gap", rangeset.NewSlice(rangeset.Span(0, 3), rangeset.Span(1, 4)), rangeset.NewSlice(rangeset.Span(0, 3), rangeset.List(0, 1, 2, 4, 5)), rangeset.ColMajor, rangeset.ColMajor},
		{"stepped section off the storage's step", rangeset.NewSlice(rangeset.Reg(1, 7, 2)), rangeset.NewSlice(rangeset.Reg(0, 8, 2)), rangeset.ColMajor, rangeset.ColMajor},
		{"section of lower rank", rangeset.NewSlice(rangeset.Span(0, 3)), box([]int{0, 0}, []int{3, 3}), rangeset.ColMajor, rangeset.ColMajor},
		{"section of higher rank", box([]int{0, 0}, []int{3, 0}), rangeset.NewSlice(rangeset.Span(0, 3)), rangeset.ColMajor, rangeset.ColMajor},
		{"rank-0 section of rank-1 storage", rangeset.NewSlice(), rangeset.NewSlice(rangeset.Span(0, 3)), rangeset.ColMajor, rangeset.ColMajor},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("section escaping its storage was resolved to runs")
				}
			}()
			runs := sectionRuns(tc.sec, tc.space, tc.layout, tc.order)
			t.Logf("resolved to %v", runs)
		})
	}
}

// TestStorageRunsTableShape pins what the per-axis tables may cost. A
// rank-1 space has no non-fast axis and must allocate what the walk
// itself does and nothing else; and a table is indexed by position in the
// section axis, so its size follows the number of values, not their span.
func TestStorageRunsTableShape(t *testing.T) {
	sink := 0
	emit := func(off, n int) { sink += off + n }

	// One run of 131072 elements, as a 1-D workload's block is. The walk
	// (rangeset.Slice.Runs) allocates its coordinate and its counters.
	oneD := rangeset.NewSlice(rangeset.Span(0, 131071))
	walk := testing.AllocsPerRun(100, func() { oneD.Runs(rangeset.ColMajor, func(c []int, n int) { sink += c[0] + n }) })
	got := testing.AllocsPerRun(100, func() { storageRuns(oneD, oneD, rangeset.ColMajor, rangeset.ColMajor, emit) })
	if got != walk {
		t.Errorf("rank-1 section: %v allocations per call, the bare walk makes %v: a table was built", got, walk)
	}

	// 1001 values spanning a million: 8 KB of table by position, 8 MB by
	// value.
	space := rangeset.NewSlice(rangeset.Span(0, 4), rangeset.Span(0, 1_000_000))
	sec := rangeset.NewSlice(rangeset.Span(0, 4), rangeset.Reg(0, 1_000_000, 1000))
	const calls = 20
	var before, after runtime.MemStats
	runs := 0
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		storageRuns(sec, space, rangeset.ColMajor, rangeset.ColMajor, func(off, n int) { runs++ })
	}
	runtime.ReadMemStats(&after)
	if runs != calls*1001 {
		t.Fatalf("%d runs, want %d", runs, calls*1001)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
		t.Errorf("sparse axis of 1001 values spanning 1e6: %d bytes allocated per call, want < 64 KiB", per)
	}
}
