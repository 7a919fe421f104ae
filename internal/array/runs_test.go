package array

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
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
func decodeRange(s *byteSource) rangeset.Range { return decodeRangeUpTo(s, 6) }

func decodeRangeUpTo(s *byteSource, most int) rangeset.Range {
	lo, n := s.next(5)-2, 1+s.next(most)
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

// decodeDeepCase draws what decodeRunsCase cannot reach: a space of rank
// 5–6 (axes of 1–3 values, so the element-wise walk stays small) and a
// section that covers the layout's first whole axes whole and then stops —
// the boundary where storageRuns ceases to fold axes into extents and
// starts to step them. whole is the number of axes covered; the axis after
// them is any sub-range but the whole one (where storage has more than one
// value), the rest are any sub-range, escaping ones included.
func decodeDeepCase(data []byte) (sec, space rangeset.Slice, layout, order rangeset.Order, whole int) {
	s := &byteSource{data}
	layout, order = rangeset.Order(s.next(2)), rangeset.Order(s.next(2))
	d := 5 + s.next(2)
	whole = s.next(d + 1)
	st, se := make([]rangeset.Range, d), make([]rangeset.Range, d)
	for j := 0; j < d; j++ {
		i := j // axes from the layout's fastest to its slowest
		if layout == rangeset.RowMajor {
			i = d - 1 - j
		}
		st[i] = decodeRangeUpTo(s, 3)
		se[i] = st[i]
		if j >= whole {
			se[i] = decodeSubRange(s, st[i])
			if n := st[i].Size(); j == whole && n > 1 && se[i].Equal(st[i]) {
				at := s.next(2)
				se[i] = st[i].Sub(at, at+n-1)
			}
		}
	}
	return rangeset.NewSlice(se...), rangeset.NewSlice(st...), layout, order, whole
}

// checkDeepCase is checkStorageRuns plus the proof that folding happened: a
// walk that follows the layout emits no more runs than the axes past the
// whole ones have coordinates.
func checkDeepCase(sec, space rangeset.Slice, layout, order rangeset.Order, whole int) (runs []xferRun, err error) {
	if runs, err = checkStorageRuns(sec, space, layout, order); err == nil && runs != nil && layout == order {
		most := 1
		for j := whole; j < sec.Rank(); j++ {
			i := j
			if layout == rangeset.RowMajor {
				i = sec.Rank() - 1 - j
			}
			most *= sec.Axis(i).Size()
		}
		if len(runs) > most {
			err = fmt.Errorf("%d runs where the %d whole leading axes leave %d coordinates: they were not folded", len(runs), whole, most)
		}
	}
	if err != nil {
		err = fmt.Errorf("section %v of storage %v, layout %v, order %v: %w", sec, space, layout, order, err)
	}
	return runs, err
}

// deepCaseSeeds: rank 5 and 6, nothing, something and everything whole.
func deepCaseSeeds() [][]byte {
	var seeds [][]byte
	rng := rand.New(rand.NewSource(211))
	for i := 0; i < 6; i++ {
		b := make([]byte, 64)
		rng.Read(b)
		b[0], b[1], b[2], b[3] = 0, 0, byte(i&1), []byte{0, 0, 2, 3, 5, 6}[i]
		seeds = append(seeds, b)
	}
	return seeds
}

// TestStorageRunsCollapseBoundary is the differential test at ranks 5–6
// and around the fold: every number of whole leading axes from none to
// all, for all four (layout, order) pairs.
func TestStorageRunsCollapseBoundary(t *testing.T) {
	cases := deepCaseSeeds()
	rng := rand.New(rand.NewSource(212))
	for i := 0; i < 1500; i++ {
		b := make([]byte, 96)
		rng.Read(b)
		cases = append(cases, b)
	}
	var byWhole [7]int
	var ranks [7]int
	escaping := 0
	for _, b := range cases {
		sec, space, layout, order, whole := decodeDeepCase(b)
		runs, err := checkDeepCase(sec, space, layout, order, whole)
		if err != nil {
			t.Fatal(err)
		}
		ranks[sec.Rank()]++
		if runs == nil {
			escaping++
		} else if layout == order {
			byWhole[whole]++
		}
	}
	t.Logf("%d cases by rank %v; resolved along the layout by whole leading axes %v; %d empty or escaping", len(cases), ranks, byWhole, escaping)
	for w, n := range byWhole {
		if n == 0 {
			t.Errorf("no resolved case with %d whole leading axes", w)
		}
	}
	if ranks[5] == 0 || ranks[6] == 0 || escaping == 0 {
		t.Error("a kind of case the test promises was never drawn")
	}
}

// FuzzStorageRunsDeep mutates decodeDeepCase's input.
func FuzzStorageRunsDeep(f *testing.F) {
	for _, b := range deepCaseSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := checkDeepCase(decodeDeepCase(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStorageRunsExtentCounts pins how many runs the paper's shape costs:
// a canonical stream piece of a 5 × 48³ field is its own storage and must
// be exactly one extent; a {1,2,2,1} block assigned onto the canonical
// distribution is what TestPlanFootprintBTShape counts through the plans —
// 16 extents packed, 4608 unpacked over the four ranks; and a block inside
// its shadowed mapping, and rank-runs at a layout stride, are what they are.
func TestStorageRunsExtentCounts(t *testing.T) {
	const n = 48
	col, row := rangeset.ColMajor, rangeset.RowMajor
	g := rangeset.Box([]int{0, 0, 0, 0}, []int{4, n - 1, n - 1, n - 1})
	grid := []int{1, 2, 2, 1}
	src, dst := mustBlock(t, g, grid), canonicalRounds(t, g, 4, col)[0]
	pack, unpack := 0, 0
	for r := 0; r < 4; r++ {
		if runs := sectionRuns(dst.Assigned(r), dst.Mapped(r), col, col); len(runs) != 1 {
			t.Errorf("canonical piece %d of 5x48^3: %d runs, want 1", r, len(runs))
		}
		for q := 0; q < 4; q++ {
			if sec := src.Assigned(r).Intersect(dst.Mapped(q)); !sec.Empty() {
				pack += len(sectionRuns(sec, src.Mapped(r), col, col))
			}
			if sec := src.Assigned(q).Intersect(dst.Mapped(r)); !sec.Empty() {
				unpack += len(sectionRuns(sec, dst.Mapped(r), col, col))
			}
		}
	}
	if pack != 16 || unpack != 4608 {
		t.Errorf("5x48^3 {1,2,2,1} -> canonical: %d runs packed, %d unpacked, want 16 and 4608", pack, unpack)
	}
	bt := mustShadow(t, src, grid)
	if runs := sectionRuns(bt.Assigned(0), bt.Mapped(0), col, col); len(runs) != 24*n {
		t.Errorf("5x24x24x48 block in its shadowed mapping: %d runs, want %d of 5x24 elements", len(runs), 24*n)
	}

	// What a cyclic distribution maps: a stepped section over equally
	// stepped storage holds consecutive ranks. One extent along the layout;
	// across it (row-major over column-major) one run per line, not one per
	// element.
	space := rangeset.NewSlice(rangeset.Span(0, 2), rangeset.Reg(1, 4001, 4))
	sec := rangeset.NewSlice(rangeset.Span(0, 2), rangeset.Reg(5, 3997, 4))
	for _, tc := range []struct {
		order rangeset.Order
		want  int
	}{{col, 1}, {row, 3}} {
		runs, err := checkStorageRuns(sec, space, col, tc.order)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != tc.want {
			t.Errorf("cyclic section %v of %v walked %v: %d runs, want %d", sec, space, tc.order, len(runs), tc.want)
		}
	}
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
		// The O(1) path of a regular range in a regular range, and the axes
		// the extent walk folds or tabulates.
		{"equal steps, last value past the storage's", rangeset.NewSlice(rangeset.Reg(2, 10, 2)), rangeset.NewSlice(rangeset.Reg(0, 8, 2)), rangeset.ColMajor, rangeset.ColMajor},
		{"equal steps, first value before the storage's", rangeset.NewSlice(rangeset.Reg(-2, 4, 2)), rangeset.NewSlice(rangeset.Reg(0, 8, 2)), rangeset.ColMajor, rangeset.ColMajor},
		{"step not a multiple of the storage's", rangeset.NewSlice(rangeset.Reg(0, 9, 3)), rangeset.NewSlice(rangeset.Reg(0, 12, 2)), rangeset.ColMajor, rangeset.ColMajor},
		{"step a multiple of the storage's, off its values", rangeset.NewSlice(rangeset.Reg(1, 9, 4)), rangeset.NewSlice(rangeset.Reg(0, 12, 2)), rangeset.ColMajor, rangeset.ColMajor},
		{"dense section of stepped storage", rangeset.NewSlice(rangeset.Span(0, 4)), rangeset.NewSlice(rangeset.Reg(0, 8, 2)), rangeset.ColMajor, rangeset.ColMajor},
		{"row-major stepped run past the storage's last value", rangeset.NewSlice(rangeset.Span(0, 3), rangeset.Reg(2, 10, 2)), rangeset.NewSlice(rangeset.Span(0, 3), rangeset.Reg(0, 8, 2)), rangeset.ColMajor, rangeset.RowMajor},
		{"non-empty section of an empty storage", rangeset.NewSlice(rangeset.Span(0, 3)), rangeset.NewSlice(rangeset.Range{}), rangeset.ColMajor, rangeset.ColMajor},
		{"non-empty section, storage empty on a slow axis", box([]int{0, 0}, []int{3, 1}), rangeset.NewSlice(rangeset.Span(0, 3), rangeset.Range{}), rangeset.ColMajor, rangeset.ColMajor},
		{"non-empty section, storage empty on the fast axis", box([]int{0, 0}, []int{3, 1}), rangeset.NewSlice(rangeset.Range{}, rangeset.Span(0, 3)), rangeset.ColMajor, rangeset.ColMajor},
		{"escapes on the axis two whole axes fold into", box([]int{0, 0, 2}, []int{3, 3, 5}), box([]int{0, 0, 0}, []int{3, 3, 3}), rangeset.ColMajor, rangeset.ColMajor},
		{"escapes on a stepped axis past a short one", box([]int{0, 0, 2}, []int{2, 3, 5}), box([]int{0, 0, 0}, []int{3, 3, 3}), rangeset.ColMajor, rangeset.ColMajor},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatal("section escaping its storage was resolved to runs")
				}
				if msg, _ := p.(string); !strings.Contains(msg, "escapes storage") {
					t.Fatalf("refused, but not by the guard: %v", p)
				}
			}()
			runs := sectionRuns(tc.sec, tc.space, tc.layout, tc.order)
			t.Logf("resolved to %v", runs)
		})
	}
}

// TestStorageRunsTableShape pins what resolving an axis may cost. A regular
// range inside a regular range of equal step is one rank-run found from its
// ends: a rank-1 one-run section allocates its stride and its run and
// nothing that grows with it, and takes no longer for 2^40 elements than
// for 2^17. Where an axis is resolved value by value, what is allocated
// follows the number of values, not their span.
func TestStorageRunsTableShape(t *testing.T) {
	for _, last := range []int{131071, 1 << 40} { // a 1-D workload's block; far too long to walk
		oneD := rangeset.NewSlice(rangeset.Span(0, last))
		var got []xferRun
		allocs := testing.AllocsPerRun(100, func() {
			got = got[:0]
			storageRuns(oneD, oneD, rangeset.ColMajor, rangeset.ColMajor, func(off, n int) { got = append(got, xferRun{off, n}) })
		})
		if len(got) != 1 || got[0] != (xferRun{0, last + 1}) {
			t.Errorf("0:%d of itself: runs %v, want the one run {0 %d}", last, got, last+1)
		}
		if allocs > 2 {
			t.Errorf("0:%d of itself: %v allocations per call, want at most 2: a table was built", last, allocs)
		}
	}

	// 1001 values spanning a million: 8 KB of table and 16 KB of rank-runs
	// by position, 8 MB by value.
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
