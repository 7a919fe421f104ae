// Package dist implements DRMS distribution specifications (§3.1 of the
// paper): the mapping and assignment of array sections to the tasks of a
// parallel application.
//
// A distribution of a d-dimensional array over P tasks is described by
// two vectors of P slices each: σa (assigned sections) and σm (mapped
// sections). The mapped section of a task is present in its address space
// as a local array of the same shape; the assigned section is the subset
// whose element values the task defines. The model's two invariants are
//
//	σa[i] ∩ σa[j] = ∅ for i ≠ j        (assigned sections are disjoint)
//	σm[i] ∩ σa[i] = σa[i]              (assigned ⊆ mapped)
//
// Mapped sections may overlap freely — that is how shadow (ghost) regions
// are expressed. Sections are not limited to regular l:u:s blocks; any
// slice built from index lists is a valid section.
package dist

import (
	"fmt"

	"drms/internal/rangeset"
)

// Kind identifies how a distribution was constructed, so it can be
// adjusted to a different number of tasks (drms_adjust).
type Kind int

const (
	// KindBlock partitions each axis into contiguous near-equal blocks
	// over a task grid.
	KindBlock Kind = iota
	// KindBlockCyclic deals fixed-size blocks onto the task grid
	// round-robin along each axis.
	KindBlockCyclic
	// KindIrregular is an explicitly given assignment; it cannot be
	// adjusted automatically.
	KindIrregular
)

func (k Kind) String() string {
	switch k {
	case KindBlock:
		return "block"
	case KindBlockCyclic:
		return "block-cyclic"
	default:
		return "irregular"
	}
}

// Distribution maps sections of a global index space onto P tasks.
type Distribution struct {
	global   rangeset.Slice
	assigned []rangeset.Slice
	mapped   []rangeset.Slice

	kind   Kind
	grid   []int // task grid (len == rank); product == P for grid kinds
	blocks []int // block sizes per axis (block-cyclic)
	shadow []int // shadow widths per axis
}

// Global returns the full index space being distributed.
func (d *Distribution) Global() rangeset.Slice { return d.global }

// Tasks returns P, the number of tasks the distribution spans.
func (d *Distribution) Tasks() int { return len(d.assigned) }

// Rank returns the dimensionality of the index space.
func (d *Distribution) Rank() int { return d.global.Rank() }

// Assigned returns σa[task], the section whose values task defines.
func (d *Distribution) Assigned(task int) rangeset.Slice { return d.assigned[task] }

// Mapped returns σm[task], the section present in task's address space.
func (d *Distribution) Mapped(task int) rangeset.Slice { return d.mapped[task] }

// Kind returns the construction kind.
func (d *Distribution) Kind() Kind { return d.kind }

// Grid returns the task grid for grid-based kinds (nil for irregular).
func (d *Distribution) Grid() []int { return append([]int(nil), d.grid...) }

// Shadow returns the per-axis shadow widths.
func (d *Distribution) Shadow() []int { return append([]int(nil), d.shadow...) }

// Validate checks the two model invariants and that every section lies
// within the global index space. It is called by the constructors; tests
// and the checkpoint loader call it on reconstructed distributions.
func (d *Distribution) Validate() error {
	if len(d.assigned) != len(d.mapped) {
		return fmt.Errorf("dist: %d assigned vs %d mapped sections", len(d.assigned), len(d.mapped))
	}
	for i, a := range d.assigned {
		if a.Rank() != d.global.Rank() || d.mapped[i].Rank() != d.global.Rank() {
			return fmt.Errorf("dist: task %d section rank mismatch", i)
		}
		if !a.Intersect(d.global).Equal(a) {
			return fmt.Errorf("dist: task %d assigned section %v exceeds global %v", i, a, d.global)
		}
		if !d.mapped[i].Intersect(d.global).Equal(d.mapped[i]) {
			return fmt.Errorf("dist: task %d mapped section %v exceeds global %v", i, d.mapped[i], d.global)
		}
		// σm ∩ σa = σa: assigned is a subset of mapped.
		if !d.mapped[i].Intersect(a).Equal(a) {
			return fmt.Errorf("dist: task %d assigned %v not within mapped %v", i, a, d.mapped[i])
		}
	}
	for i := range d.assigned {
		for j := i + 1; j < len(d.assigned); j++ {
			if x := d.assigned[i].Intersect(d.assigned[j]); !x.Empty() {
				return fmt.Errorf("dist: assigned sections of tasks %d and %d overlap on %v", i, j, x)
			}
		}
	}
	return nil
}

// Block builds a block distribution of global over a task grid: axis i of
// the global space is cut into grid[i] contiguous runs of near-equal
// length (remainder spread over the leading blocks, as DRMS does), and
// task (g0, g1, ...) — enumerated column-major in the grid — is assigned
// the Cartesian product of its runs. Mapped sections equal assigned
// sections; apply WithShadow for ghost regions.
func Block(global rangeset.Slice, grid []int) (*Distribution, error) {
	if len(grid) != global.Rank() {
		return nil, fmt.Errorf("dist: grid rank %d != global rank %d", len(grid), global.Rank())
	}
	p := 1
	for i, g := range grid {
		if g < 1 {
			return nil, fmt.Errorf("dist: grid[%d] = %d", i, g)
		}
		if g > global.Axis(i).Size() {
			return nil, fmt.Errorf("dist: grid[%d] = %d exceeds axis size %d", i, g, global.Axis(i).Size())
		}
		p *= g
	}
	// Per-axis runs: runs[i][k] is the k-th block of axis i.
	runs := make([][]rangeset.Range, len(grid))
	for i := range grid {
		runs[i] = cutRuns(global.Axis(i), grid[i])
	}
	d := &Distribution{
		global:   global,
		assigned: make([]rangeset.Slice, p),
		mapped:   make([]rangeset.Slice, p),
		kind:     KindBlock,
		grid:     append([]int(nil), grid...),
		shadow:   make([]int, len(grid)),
	}
	coord := make([]int, len(grid))
	for t := 0; t < p; t++ {
		rs := make([]rangeset.Range, len(grid))
		for i := range grid {
			rs[i] = runs[i][coord[i]]
		}
		s := rangeset.NewSlice(rs...)
		d.assigned[t] = s
		d.mapped[t] = s
		// Advance grid coordinate column-major (first axis fastest).
		for i := 0; i < len(grid); i++ {
			coord[i]++
			if coord[i] < grid[i] {
				break
			}
			coord[i] = 0
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// cutRuns splits a range into k contiguous runs of near-equal size, the
// first (size mod k) runs one element longer.
func cutRuns(r rangeset.Range, k int) []rangeset.Range {
	n := r.Size()
	out := make([]rangeset.Range, k)
	base, rem := n/k, n%k
	pos := 0
	for i := 0; i < k; i++ {
		sz := base
		if i < rem {
			sz++
		}
		out[i] = r.Sub(pos, pos+sz)
		pos += sz
	}
	return out
}

// GenBlock builds a generalized block distribution (HPF's GEN_BLOCK):
// along axis i, explicit contiguous block lengths sizes[i] (one entry per
// grid row, summing to the axis extent) instead of near-equal blocks.
// This is the load-balancing form §7 alludes to for non-uniform data: a
// task with heavier elements can be given a shorter run.
func GenBlock(global rangeset.Slice, sizes [][]int) (*Distribution, error) {
	if len(sizes) != global.Rank() {
		return nil, fmt.Errorf("dist: GenBlock sizes rank %d != global rank %d", len(sizes), global.Rank())
	}
	p := 1
	runs := make([][]rangeset.Range, global.Rank())
	grid := make([]int, global.Rank())
	for i, axSizes := range sizes {
		ax := global.Axis(i)
		total := 0
		for _, n := range axSizes {
			if n < 1 {
				return nil, fmt.Errorf("dist: GenBlock axis %d has a block of %d", i, n)
			}
			total += n
		}
		if total != ax.Size() {
			return nil, fmt.Errorf("dist: GenBlock axis %d blocks sum to %d, extent is %d", i, total, ax.Size())
		}
		grid[i] = len(axSizes)
		p *= len(axSizes)
		pos := 0
		for _, n := range axSizes {
			runs[i] = append(runs[i], ax.Sub(pos, pos+n))
			pos += n
		}
	}
	d := &Distribution{
		global:   global,
		assigned: make([]rangeset.Slice, p),
		mapped:   make([]rangeset.Slice, p),
		kind:     KindIrregular, // explicit sizes cannot be auto-adjusted
		grid:     grid,
		shadow:   make([]int, global.Rank()),
	}
	coord := make([]int, global.Rank())
	for t := 0; t < p; t++ {
		rs := make([]rangeset.Range, global.Rank())
		for i := range grid {
			rs[i] = runs[i][coord[i]]
		}
		s := rangeset.NewSlice(rs...)
		d.assigned[t] = s
		d.mapped[t] = s
		for i := 0; i < len(grid); i++ {
			coord[i]++
			if coord[i] < grid[i] {
				break
			}
			coord[i] = 0
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// BlockCyclic builds a block-cyclic distribution: along axis i, blocks of
// blockSizes[i] consecutive elements are dealt round-robin to the grid[i]
// task rows.
func BlockCyclic(global rangeset.Slice, grid, blockSizes []int) (*Distribution, error) {
	if len(grid) != global.Rank() || len(blockSizes) != global.Rank() {
		return nil, fmt.Errorf("dist: grid/blockSizes rank mismatch with global rank %d", global.Rank())
	}
	p := 1
	for i, g := range grid {
		if g < 1 || blockSizes[i] < 1 {
			return nil, fmt.Errorf("dist: invalid grid %v / blockSizes %v", grid, blockSizes)
		}
		p *= g
	}
	// Per-axis dealt index sets: deal[i][k] = indices of axis i owned by
	// grid row k.
	deal := make([][][]int, len(grid))
	for i := range grid {
		deal[i] = make([][]int, grid[i])
		ax := global.Axis(i)
		for pos := 0; pos < ax.Size(); pos++ {
			blk := pos / blockSizes[i]
			row := blk % grid[i]
			deal[i][row] = append(deal[i][row], ax.At(pos))
		}
	}
	d := &Distribution{
		global:   global,
		assigned: make([]rangeset.Slice, p),
		mapped:   make([]rangeset.Slice, p),
		kind:     KindBlockCyclic,
		grid:     append([]int(nil), grid...),
		blocks:   append([]int(nil), blockSizes...),
		shadow:   make([]int, len(grid)),
	}
	coord := make([]int, len(grid))
	for t := 0; t < p; t++ {
		rs := make([]rangeset.Range, len(grid))
		for i := range grid {
			rs[i] = rangeset.List(deal[i][coord[i]]...)
		}
		s := rangeset.NewSlice(rs...)
		d.assigned[t] = s
		d.mapped[t] = s
		for i := 0; i < len(grid); i++ {
			coord[i]++
			if coord[i] < grid[i] {
				break
			}
			coord[i] = 0
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Irregular builds a distribution from explicit per-task assigned and
// mapped sections. If mapped is nil, mapped sections equal assigned
// sections. Irregular distributions cannot be Adjusted.
func Irregular(global rangeset.Slice, assigned, mapped []rangeset.Slice) (*Distribution, error) {
	if mapped == nil {
		mapped = assigned
	}
	d := &Distribution{
		global:   global,
		assigned: append([]rangeset.Slice(nil), assigned...),
		mapped:   append([]rangeset.Slice(nil), mapped...),
		kind:     KindIrregular,
		shadow:   make([]int, global.Rank()),
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// WithShadow returns a copy of d whose mapped sections are widened by
// width[i] index positions on each side along axis i, clipped to the
// global space. This models the ghost regions grid codes keep around
// their local sections (§6). Widening uses index *positions* within the
// global axis, so it is meaningful for irregular axes too.
func (d *Distribution) WithShadow(width []int) (*Distribution, error) {
	if len(width) != d.Rank() {
		return nil, fmt.Errorf("dist: shadow width rank %d != %d", len(width), d.Rank())
	}
	nd := *d
	nd.mapped = make([]rangeset.Slice, d.Tasks())
	nd.shadow = append([]int(nil), width...)
	for t := 0; t < d.Tasks(); t++ {
		if d.assigned[t].Empty() {
			nd.mapped[t] = d.mapped[t]
			continue
		}
		rs := make([]rangeset.Range, d.Rank())
		for i := 0; i < d.Rank(); i++ {
			rs[i] = widen(d.global.Axis(i), d.mapped[t].Axis(i), width[i])
		}
		nd.mapped[t] = rangeset.NewSlice(rs...)
	}
	if err := nd.Validate(); err != nil {
		return nil, err
	}
	return &nd, nil
}

// widen grows section sec by w positions on each side within the global
// axis ax.
func widen(ax, sec rangeset.Range, w int) rangeset.Range {
	if w == 0 || sec.Empty() {
		return sec
	}
	loRank, _ := ax.Rank(sec.Min())
	hiRank, _ := ax.Rank(sec.Max())
	lo := max(0, loRank-w)
	hi := min(ax.Size()-1, hiRank+w)
	// The widened section is the union of the original (possibly
	// irregular) section and the added border positions.
	present := map[int]bool{}
	for _, v := range sec.Elements() {
		present[v] = true
	}
	var elems []int
	for k := lo; k <= hi; k++ {
		v := ax.At(k)
		if present[v] {
			continue
		}
		elems = append(elems, v)
	}
	elems = append(elems, sec.Elements()...)
	// sort (small)
	for i := 1; i < len(elems); i++ {
		for j := i; j > 0 && elems[j] < elems[j-1]; j-- {
			elems[j], elems[j-1] = elems[j-1], elems[j]
		}
	}
	return rangeset.List(elems...)
}

// Adjust recomputes the distribution for a new number of tasks,
// preserving its kind, grid shape style, block sizes, and shadow widths
// (drms_adjust followed by drms_distribute in the paper's Figure 1).
func (d *Distribution) Adjust(newTasks int) (*Distribution, error) {
	if newTasks < 1 {
		return nil, fmt.Errorf("dist: adjust to %d tasks", newTasks)
	}
	switch d.kind {
	case KindBlock, KindBlockCyclic:
		grid := FactorGrid(newTasks, d.Rank(), d.global.Shape())
		var nd *Distribution
		var err error
		if d.kind == KindBlock {
			nd, err = Block(d.global, grid)
		} else {
			nd, err = BlockCyclic(d.global, grid, d.blocks)
		}
		if err != nil {
			return nil, err
		}
		if hasShadow(d.shadow) {
			return nd.WithShadow(d.shadow)
		}
		return nd, nil
	default:
		return nil, fmt.Errorf("dist: cannot adjust %v distribution; supply explicit sections", d.kind)
	}
}

func hasShadow(w []int) bool {
	for _, v := range w {
		if v != 0 {
			return true
		}
	}
	return false
}

// FactorGrid factors p into rank grid dimensions balanced against the
// global shape: axes with more elements receive more tasks. It never
// returns a grid axis larger than the corresponding shape axis when
// avoidable.
func FactorGrid(p, rank int, shape []int) []int {
	grid := make([]int, rank)
	for i := range grid {
		grid[i] = 1
	}
	// Greedily peel prime factors of p onto the axis currently having the
	// largest elements-per-task ratio.
	for _, f := range primeFactors(p) {
		best, bestRatio := -1, -1.0
		for i := 0; i < rank; i++ {
			if grid[i]*f > shape[i] {
				continue
			}
			ratio := float64(shape[i]) / float64(grid[i])
			if ratio > bestRatio {
				best, bestRatio = i, ratio
			}
		}
		if best == -1 {
			// No axis can absorb the factor without exceeding its size;
			// place it on the relatively least-loaded axis anyway.
			for i := 0; i < rank; i++ {
				ratio := float64(shape[i]) / float64(grid[i])
				if ratio > bestRatio {
					best, bestRatio = i, ratio
				}
			}
		}
		grid[best] *= f
	}
	return grid
}

// primeFactors returns the prime factorization of n in descending order
// (large factors placed first gives better balance).
func primeFactors(n int) []int {
	var fs []int
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	// reverse: descending
	for i, j := 0, len(fs)-1; i < j; i, j = i+1, j-1 {
		fs[i], fs[j] = fs[j], fs[i]
	}
	return fs
}

// String summarizes the distribution.
func (d *Distribution) String() string {
	return fmt.Sprintf("%v over %d tasks (grid %v, shadow %v) of %v",
		d.kind, d.Tasks(), d.grid, d.shadow, d.global)
}
