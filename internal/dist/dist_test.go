package dist

import (
	"math/rand"
	"testing"

	"drms/internal/rangeset"
)

func cube(n int) rangeset.Slice {
	return rangeset.Box([]int{0, 0, 0}, []int{n - 1, n - 1, n - 1})
}

func TestBlockCoversDisjoint(t *testing.T) {
	g := cube(8)
	d, err := Block(g, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Tasks() != 8 {
		t.Fatalf("Tasks = %d", d.Tasks())
	}
	if !d.Covers() {
		t.Fatal("block distribution must cover the global space")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each task gets a 4x4x4 block.
	for p := 0; p < 8; p++ {
		if d.Assigned(p).Size() != 64 {
			t.Fatalf("task %d assigned %d elements, want 64", p, d.Assigned(p).Size())
		}
	}
}

func TestBlockUnevenRemainderLeadingBlocks(t *testing.T) {
	g := rangeset.NewSlice(rangeset.Span(0, 9)) // 10 elements over 3 tasks
	d, err := Block(g, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{d.Assigned(0).Size(), d.Assigned(1).Size(), d.Assigned(2).Size()}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("block sizes = %v, want [4 3 3]", sizes)
	}
	// Blocks are contiguous and ordered.
	if d.Assigned(0).Axis(0).Max()+1 != d.Assigned(1).Axis(0).Min() {
		t.Fatal("blocks not contiguous")
	}
}

func TestBlockGridMismatch(t *testing.T) {
	if _, err := Block(cube(8), []int{2, 2}); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := Block(cube(2), []int{4, 1, 1}); err == nil {
		t.Fatal("grid larger than axis accepted")
	}
}

func TestOwnerUnique(t *testing.T) {
	d, err := Block(cube(6), []int{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, d.Tasks())
	d.Global().Each(rangeset.ColMajor, func(c []int) {
		o := d.Owner(c)
		if o < 0 {
			t.Fatalf("element %v unassigned", c)
		}
		counts[o]++
	})
	for p, n := range counts {
		if n != d.Assigned(p).Size() {
			t.Fatalf("task %d owns %d elements but assigned size is %d", p, n, d.Assigned(p).Size())
		}
	}
}

func TestBlockCyclicDealsRoundRobin(t *testing.T) {
	g := rangeset.NewSlice(rangeset.Span(0, 11))
	d, err := BlockCyclic(g, []int{3}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	// Blocks of 2 dealt to 3 tasks: task0 gets {0,1,6,7}, task1 {2,3,8,9}, task2 {4,5,10,11}.
	want := [][]int{{0, 1, 6, 7}, {2, 3, 8, 9}, {4, 5, 10, 11}}
	for p := 0; p < 3; p++ {
		got := d.Assigned(p).Axis(0).Elements()
		if len(got) != len(want[p]) {
			t.Fatalf("task %d: %v, want %v", p, got, want[p])
		}
		for i := range got {
			if got[i] != want[p][i] {
				t.Fatalf("task %d: %v, want %v", p, got, want[p])
			}
		}
	}
	if !d.Covers() {
		t.Fatal("block-cyclic must cover")
	}
}

func TestPureCyclic(t *testing.T) {
	g := rangeset.NewSlice(rangeset.Span(0, 9))
	d, err := BlockCyclic(g, []int{2}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	// Cyclic with block 1: evens to task 0, odds to task 1 — and the
	// sections collapse to regular strided ranges.
	if !d.Assigned(0).Axis(0).Equal(rangeset.Reg(0, 8, 2)) {
		t.Fatalf("task 0 = %v", d.Assigned(0).Axis(0))
	}
	if !d.Assigned(0).Axis(0).IsRegular() {
		t.Fatal("cyclic section should be stored regular")
	}
}

func TestWithShadowOverlapsNeighborsOnly(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{11, 11})
	d, err := Block(g, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := d.WithShadow([]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Middle task (rows 4-7) maps rows 3-8.
	m := sh.Mapped(1)
	if m.Axis(0).Min() != 3 || m.Axis(0).Max() != 8 {
		t.Fatalf("middle mapped rows %v, want 3:8", m.Axis(0))
	}
	// Boundary tasks clip at the global edge.
	if sh.Mapped(0).Axis(0).Min() != 0 {
		t.Fatalf("first mapped rows %v, want to start at 0", sh.Mapped(0).Axis(0))
	}
	if sh.Mapped(2).Axis(0).Max() != 11 {
		t.Fatalf("last mapped rows %v, want to end at 11", sh.Mapped(2).Axis(0))
	}
	// Assigned sections are unchanged and still valid.
	for p := 0; p < 3; p++ {
		if !sh.Assigned(p).Equal(d.Assigned(p)) {
			t.Fatal("shadow changed assignment")
		}
	}
	if err := sh.Validate(); err != nil {
		t.Fatal(err)
	}
	// Shadow storage exceeds assignment: the §6 redundancy.
	if sh.MappedTotal() <= sh.AssignedTotal() {
		t.Fatal("shadow should add mapped storage")
	}
	if sh.MappedTotal() != sh.AssignedTotal()+2*12+2*12 {
		t.Fatalf("MappedTotal = %d", sh.MappedTotal())
	}
}

func TestShadowRatioMatchesPaperFormula(t *testing.T) {
	// §6: r = ((n+2β)^d)/(n^d) for interior tasks. Build a 3-D block
	// distribution large enough to have an interior task and check its
	// mapped size matches the formula.
	n, beta := 8, 2
	g := cube(3 * n) // 3x3x3 grid of n-cubes
	d, err := Block(g, []int{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := d.WithShadow([]int{beta, beta, beta})
	if err != nil {
		t.Fatal(err)
	}
	// Task 13 is the center of the 3x3x3 grid (column-major coord 1,1,1).
	center := 1 + 3*1 + 9*1
	want := (n + 2*beta) * (n + 2*beta) * (n + 2*beta)
	if got := sh.Mapped(center).Size(); got != want {
		t.Fatalf("interior mapped size = %d, want (n+2β)^3 = %d", got, want)
	}
}

func TestIrregularValidation(t *testing.T) {
	g := rangeset.NewSlice(rangeset.Span(0, 9))
	a := []rangeset.Slice{
		rangeset.NewSlice(rangeset.List(0, 2, 4)),
		rangeset.NewSlice(rangeset.List(1, 3)),
	}
	d, err := Irregular(g, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Covers() {
		t.Fatal("elements 5-9 unassigned; must not report covering")
	}
	if d.Owner([]int{5}) != -1 {
		t.Fatal("unassigned element has an owner")
	}
	// Overlapping assignment must be rejected.
	bad := []rangeset.Slice{
		rangeset.NewSlice(rangeset.Span(0, 5)),
		rangeset.NewSlice(rangeset.Span(5, 9)),
	}
	if _, err := Irregular(g, bad, nil); err == nil {
		t.Fatal("overlapping assigned sections accepted")
	}
	// Assigned outside mapped must be rejected.
	m := []rangeset.Slice{
		rangeset.NewSlice(rangeset.List(0, 2)), // missing 4
		rangeset.NewSlice(rangeset.List(1, 3)),
	}
	if _, err := Irregular(g, a, m); err == nil {
		t.Fatal("assigned ⊄ mapped accepted")
	}
}

func TestAdjustBlockPreservesCoverAndShadow(t *testing.T) {
	g := cube(16)
	d, err := Block(g, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err = d.WithShadow([]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, newP := range []int{1, 2, 3, 5, 6, 12, 16} {
		nd, err := d.Adjust(newP)
		if err != nil {
			t.Fatalf("Adjust(%d): %v", newP, err)
		}
		if nd.Tasks() != newP {
			t.Fatalf("Adjust(%d) produced %d tasks", newP, nd.Tasks())
		}
		if !nd.Covers() {
			t.Fatalf("Adjust(%d) does not cover", newP)
		}
		if err := nd.Validate(); err != nil {
			t.Fatalf("Adjust(%d): %v", newP, err)
		}
		if nd.Kind() != KindBlock {
			t.Fatalf("Adjust(%d) changed kind to %v", newP, nd.Kind())
		}
		sh := nd.Shadow()
		if sh[0] != 1 || sh[1] != 1 || sh[2] != 1 {
			t.Fatalf("Adjust(%d) lost shadow: %v", newP, sh)
		}
	}
}

func TestAdjustIrregularRejected(t *testing.T) {
	g := rangeset.NewSlice(rangeset.Span(0, 9))
	d, err := Irregular(g, []rangeset.Slice{rangeset.NewSlice(rangeset.Span(0, 9))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Adjust(2); err == nil {
		t.Fatal("irregular adjust should fail")
	}
}

func TestFactorGridBalances(t *testing.T) {
	cases := []struct {
		p, rank int
		shape   []int
	}{
		{16, 3, []int{64, 64, 64}},
		{8, 2, []int{100, 10}},
		{7, 2, []int{64, 64}},
		{12, 3, []int{64, 64, 64}},
		{1, 1, []int{5}},
	}
	for _, c := range cases {
		g := FactorGrid(c.p, c.rank, c.shape)
		prod := 1
		for _, v := range g {
			prod *= v
		}
		if prod != c.p {
			t.Fatalf("FactorGrid(%d) = %v, product %d", c.p, g, prod)
		}
		for i := range g {
			if g[i] > c.shape[i] {
				t.Errorf("FactorGrid(%d, shape %v) = %v exceeds axis %d", c.p, c.shape, g, i)
			}
		}
	}
	// Elongated shapes attract more tasks on the long axis.
	g := FactorGrid(8, 2, []int{100, 10})
	if g[0] < g[1] {
		t.Fatalf("FactorGrid favored the short axis: %v", g)
	}
}

func TestAdjustRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := cube(12)
	d, err := Block(g, []int{2, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p := 1 + rng.Intn(12)
		nd, err := d.Adjust(p)
		if err != nil {
			t.Fatalf("Adjust(%d): %v", p, err)
		}
		if err := nd.Validate(); err != nil {
			t.Fatalf("Adjust(%d) invalid: %v", p, err)
		}
		if nd.AssignedTotal() != g.Size() {
			t.Fatalf("Adjust(%d) assigned %d of %d elements", p, nd.AssignedTotal(), g.Size())
		}
	}
}

func TestBlockCyclicAdjust(t *testing.T) {
	g := rangeset.NewSlice(rangeset.Span(0, 63), rangeset.Span(0, 63))
	d, err := BlockCyclic(g, []int{2, 2}, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := d.Adjust(6)
	if err != nil {
		t.Fatal(err)
	}
	if nd.Kind() != KindBlockCyclic || !nd.Covers() {
		t.Fatalf("adjusted: kind %v covers %v", nd.Kind(), nd.Covers())
	}
}

func TestGenBlockExplicitSizes(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{9, 7})
	d, err := GenBlock(g, [][]int{{7, 3}, {2, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Tasks() != 4 || !d.Covers() {
		t.Fatalf("tasks %d covers %v", d.Tasks(), d.Covers())
	}
	// Task (0,0): rows 0-6, cols 0-1.
	if d.Assigned(0).Size() != 7*2 {
		t.Fatalf("task 0 size %d", d.Assigned(0).Size())
	}
	// Task (1,1): rows 7-9, cols 2-7.
	last := d.Assigned(3)
	if last.Axis(0).Min() != 7 || last.Axis(1).Min() != 2 || last.Size() != 3*6 {
		t.Fatalf("task 3 = %v", last)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Shadows work on gen-block too.
	sh, err := d.WithShadow([]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Mapped(3).Axis(0).Min() != 6 {
		t.Fatalf("shadowed task 3 rows %v", sh.Mapped(3).Axis(0))
	}
}

func TestGenBlockValidation(t *testing.T) {
	g := rangeset.Box([]int{0}, []int{9})
	if _, err := GenBlock(g, [][]int{{5, 4}}); err == nil {
		t.Error("blocks not summing to extent accepted")
	}
	if _, err := GenBlock(g, [][]int{{10, 0}}); err == nil {
		t.Error("zero-length block accepted")
	}
	if _, err := GenBlock(g, [][]int{{5, 5}, {1}}); err == nil {
		t.Error("rank mismatch accepted")
	}
}

// MappedTotal returns the number of elements mapped across all tasks,
// counting shadow copies multiply. MappedTotal - AssignedTotal is the
// redundant storage the SPMD checkpoint saves and the DRMS checkpoint
// does not (§6 of the paper).
func (d *Distribution) MappedTotal() int {
	n := 0
	for _, m := range d.mapped {
		n += m.Size()
	}
	return n
}

// Covers reports whether every global element is assigned to some task
// (no undefined elements).
func (d *Distribution) Covers() bool {
	return d.AssignedTotal() == d.global.Size()
}

// Owner returns the task whose assigned section contains coordinate c,
// or -1 if the element is unassigned (its value is undefined).
func (d *Distribution) Owner(c []int) int {
	for i, a := range d.assigned {
		if a.Contains(c) {
			return i
		}
	}
	return -1
}

// AssignedTotal returns the number of elements assigned across all tasks.
// For a covering distribution this equals the global size.
func (d *Distribution) AssignedTotal() int {
	n := 0
	for _, a := range d.assigned {
		n += a.Size()
	}
	return n
}

// TestValidateRejectsEachContainmentViolation: each of Validate's three
// containment checks rejects its violation with its own message, on
// regular axes (one off the global lattice) and on index-list axes.
// Task 0 is valid; task 1 carries the violation. A nil mapped means
// mapped equals assigned.
func TestValidateRejectsEachContainmentViolation(t *testing.T) {
	type secs = []rangeset.Slice
	sl := rangeset.NewSlice
	span, reg, list := rangeset.Span, rangeset.Reg, rangeset.List
	box := sl(span(0, 9), span(0, 9))
	lattice := sl(reg(0, 18, 2))
	index := sl(list(0, 1, 3, 7, 8))
	cases := []struct {
		global           rangeset.Slice
		assigned, mapped secs
		want             string
	}{
		{box, secs{sl(span(0, 4), span(0, 9)), sl(span(5, 10), span(0, 9))}, nil,
			"dist: task 1 assigned section (5:10, 0:9) exceeds global (0:9, 0:9)"},
		{box, secs{sl(span(0, 4), span(0, 9)), sl(span(5, 9), span(0, 9))},
			secs{sl(span(0, 4), span(0, 9)), sl(span(4, 10), span(0, 9))},
			"dist: task 1 mapped section (4:10, 0:9) exceeds global (0:9, 0:9)"},
		{box, secs{sl(span(0, 4), span(0, 9)), sl(span(5, 9), span(0, 9))},
			secs{sl(span(0, 4), span(0, 9)), sl(span(6, 9), span(0, 9))},
			"dist: task 1 assigned (5:9, 0:9) not within mapped (6:9, 0:9)"},
		{lattice, secs{sl(reg(0, 6, 2)), sl(reg(3, 9, 3))}, nil,
			"dist: task 1 assigned section (3:9:3) exceeds global (0:18:2)"},
		{lattice, secs{sl(reg(0, 6, 2)), sl(reg(8, 16, 4))},
			secs{sl(reg(0, 6, 2)), sl(reg(8, 17, 3))},
			"dist: task 1 mapped section (8:17:3) exceeds global (0:18:2)"},
		{lattice, secs{sl(reg(0, 6, 2)), sl(reg(8, 16, 2))},
			secs{sl(reg(0, 6, 2)), sl(reg(8, 16, 4))},
			"dist: task 1 assigned (8:16:2) not within mapped (8:16:4)"},
		{index, secs{sl(list(0, 1)), sl(list(3, 5, 8))}, nil,
			"dist: task 1 assigned section ([3 5 8]) exceeds global ([0 1 3 7 8])"},
		{index, secs{sl(list(0, 1)), sl(list(3, 7))},
			secs{sl(list(0, 1)), sl(list(3, 7, 9))},
			"dist: task 1 mapped section ([3 7 9]) exceeds global ([0 1 3 7 8])"},
		{index, secs{sl(list(0, 1)), sl(list(3, 7, 8))},
			secs{sl(list(0, 1)), sl(list(1, 3, 8))},
			"dist: task 1 assigned ([3 7 8]) not within mapped ([1 3 8])"},
	}
	for i, c := range cases {
		if _, err := Irregular(c.global, c.assigned, c.mapped); err == nil || err.Error() != c.want {
			t.Errorf("case %d: Irregular = %v, want %q", i, err, c.want)
		}
	}
}
