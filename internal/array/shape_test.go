package array

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// The paper's applications checkpoint comps × n³ arrays whose fast axis
// (5 or 15 components) is never distributed (apps.Decompose, grid
// {1,a,b,c}), so a fast-axis run is 5 elements where a block is
// contiguous over thousands. The 2-D property tests never see that: their
// axis-0 runs are already long. The cases below are that shape, and every
// plan they build is held to the run-list invariants of checkAssignPlans
// and checkGatherPlan.

// shapeCase is one (source, destination) distribution pair of a global
// space on one communicator.
type shapeCase struct {
	name     string
	g        rangeset.Slice
	src, dst *dist.Distribution
}

func (sc shapeCase) tasks() int { return sc.src.Tasks() }

// mustShadow widens d by one position on every axis grid splits.
func mustShadow(t testing.TB, d *dist.Distribution, grid []int) *dist.Distribution {
	t.Helper()
	w := make([]int, len(grid))
	for i, k := range grid {
		if k > 1 {
			w[i] = 1
		}
	}
	sd, err := d.WithShadow(w)
	if err != nil {
		t.Fatal(err)
	}
	return sd
}

// paperShapeCases returns the block-grid pairs of comps × 12³ for comps 5
// and 15, each plain and with shadows on the split axes (comps 5: of
// either or both sides; comps 15, three times the bytes: of both), plus
// one space with a stepped axis whose source distribution partitions an
// axis into random index lists.
func paperShapeCases(t testing.TB) []shapeCase {
	t.Helper()
	const n = 12
	pairs := [][2][]int{
		{{1, 2, 2, 1}, {1, 1, 1, 4}},
		{{1, 1, 1, 3}, {1, 3, 1, 1}},
		{{1, 1, 2, 3}, {1, 3, 2, 1}},
	}
	var cases []shapeCase
	for _, comps := range []int{5, 15} {
		g := rangeset.Box([]int{0, 0, 0, 0}, []int{comps - 1, n - 1, n - 1, n - 1})
		for _, pr := range pairs {
			for shadow := 0; shadow < 4; shadow++ {
				if comps == 15 && shadow%3 != 0 {
					continue
				}
				src, dst := mustBlock(t, g, pr[0]), mustBlock(t, g, pr[1])
				if shadow&1 != 0 {
					src = mustShadow(t, src, pr[0])
				}
				if shadow&2 != 0 {
					dst = mustShadow(t, dst, pr[1])
				}
				cases = append(cases, shapeCase{
					name: fmt.Sprintf("%dx%d^3/%v->%v/shadow%d", comps, n, pr[0], pr[1], shadow),
					g:    g, src: src, dst: dst,
				})
			}
		}
	}

	// A stepped axis 2 (values 0,2,..,22: every fast-axis "run" along it
	// would be one element, yet storage is dense) and an irregular source:
	// axis 1 split into two random index lists, axis 3 into two blocks.
	rng := rand.New(rand.NewSource(181))
	g := rangeset.NewSlice(rangeset.Span(0, 4), rangeset.Span(0, n-1), rangeset.Reg(0, 2*(n-1), 2), rangeset.Span(0, n-1))
	p1 := randomPartition(rng, g.Axis(1), 2)
	lo3, hi3 := g.Axis(3).Halves()
	var assigned []rangeset.Slice
	for _, a3 := range []rangeset.Range{lo3, hi3} {
		for _, a1 := range p1 {
			assigned = append(assigned, rangeset.NewSlice(g.Axis(0), a1, g.Axis(2), a3))
		}
	}
	irr, err := dist.Irregular(g, assigned, nil)
	if err != nil {
		t.Fatal(err)
	}
	grid := []int{1, 1, 2, 2}
	cases = append(cases,
		shapeCase{name: "stepped/irregular->block", g: g, src: irr, dst: mustBlock(t, g, grid)},
		shapeCase{name: "stepped/block+shadow->irregular", g: g, src: mustShadow(t, mustBlock(t, g, grid), grid), dst: irr},
	)
	return cases
}

// canonicalRounds reproduces the streaming layer's one-piece-per-writer
// auxiliary distributions of the whole space (stream.buildRounds): the
// space is bisected into at least tasks pieces in the given order, and
// each round binds the next tasks pieces to tasks 0.. as both assigned
// and mapped sections.
func canonicalRounds(t testing.TB, g rangeset.Slice, tasks int, order rangeset.Order) []*dist.Distribution {
	t.Helper()
	pieces := g.Partition(tasks, order)
	var rounds []*dist.Distribution
	for base := 0; base < len(pieces); base += tasks {
		assigned := make([]rangeset.Slice, tasks)
		for i := range assigned {
			assigned[i] = g.EmptyLike()
		}
		copy(assigned, pieces[base:min(base+tasks, len(pieces))])
		d, err := dist.Irregular(g, assigned, nil)
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, d)
	}
	return rounds
}

func sumRuns(runs []xferRun) (n int) {
	for _, r := range runs {
		n += r.n
	}
	return n
}

// planRuns counts the runs a plan holds on its pack side (send lists and
// the self-overlap's source list) and on its unpack side.
func planRuns(pl *assignPlan) (pack, unpack int) {
	pack, unpack = len(pl.selfSrc), len(pl.selfDst)
	for _, px := range pl.send {
		pack += len(px.runs)
	}
	for _, px := range pl.recv {
		unpack += len(px.runs)
	}
	return pack, unpack
}

// checkMaximal asserts invariant (a): a stride-1 list never holds two
// consecutive runs the enumerator should have merged.
func checkMaximal(what string, runs []xferRun) {
	for i := 1; i < len(runs); i++ {
		if runs[i-1].off+runs[i-1].n == runs[i].off {
			panic(fmt.Sprintf("%s: runs %d and %d abut in storage (%v, %v): list is not maximal",
				what, i-1, i, runs[i-1], runs[i]))
		}
	}
}

// checkAssignPlans builds every rank's plan of Assign(dst <- src) exactly
// as the cache would and asserts the run-list invariants: (a) maximality,
// (b) conservation — each list covers its section's element count and
// peerXfer.bytes is that count in bytes, pair-wise equal on both ends of
// a transfer — and (c) the two self-overlap lists cover the same element
// count however differently they are segmented. It returns the plans.
func checkAssignPlans(src, dst *dist.Distribution, es int) []*assignPlan {
	size := src.Tasks()
	plans := make([]*assignPlan, size)
	for r := range plans {
		plans[r] = buildAssignPlan(src, dst, r, size, es, rangeset.ColMajor, noPiece)
	}
	for r, pl := range plans {
		what := fmt.Sprintf("plan of rank %d", r)
		var remote int64
		for _, px := range pl.send {
			sec := src.Assigned(r).Intersect(dst.Mapped(px.peer))
			checkMaximal(what+" send", px.runs)
			if n := sumRuns(px.runs); n != sec.Size() || px.bytes != n*es {
				panic(fmt.Sprintf("%s: send to %d covers %d elements / %d bytes, section has %d", what, px.peer, n, px.bytes, sec.Size()))
			}
			if !pl.sendTo[px.peer] {
				panic(what + ": send list and sendTo mask disagree")
			}
			remote += int64(px.bytes)
			// The receiver planned the same section from its side.
			found := false
			for _, rx := range plans[px.peer].recv {
				if rx.peer == r {
					found = rx.bytes == px.bytes
				}
			}
			if !found {
				panic(fmt.Sprintf("%s: peer %d does not expect the %d bytes sent to it", what, px.peer, px.bytes))
			}
		}
		if remote != pl.remoteBytes {
			panic(fmt.Sprintf("%s: remoteBytes %d, send lists sum to %d", what, pl.remoteBytes, remote))
		}
		for _, px := range pl.recv {
			sec := src.Assigned(px.peer).Intersect(dst.Mapped(r))
			checkMaximal(what+" recv", px.runs)
			if n := sumRuns(px.runs); n != sec.Size() || px.bytes != n*es {
				panic(fmt.Sprintf("%s: recv from %d covers %d elements / %d bytes, section has %d", what, px.peer, n, px.bytes, sec.Size()))
			}
			if !pl.recvFrom[px.peer] {
				panic(what + ": recv list and recvFrom mask disagree")
			}
		}
		self := src.Assigned(r).Intersect(dst.Mapped(r)).Size()
		checkMaximal(what+" selfSrc", pl.selfSrc)
		checkMaximal(what+" selfDst", pl.selfDst)
		if s, d := sumRuns(pl.selfSrc), sumRuns(pl.selfDst); s != self || d != self {
			panic(fmt.Sprintf("%s: self lists cover %d and %d elements, overlap has %d", what, s, d, self))
		}
	}
	return plans
}

// fastAxisRuns counts the maximal runs of consecutive integers along the
// order's fast axis, over every line of sec: what a plan held per section
// before runs were merged in storage, and what the enumerator walked until
// it walked extents.
func fastAxisRuns(sec rangeset.Slice, order rangeset.Order) int {
	if sec.Rank() == 0 || sec.Empty() {
		return sec.Size() // the scalar is one run, an empty section none
	}
	fast := sec.Axis(0)
	if order == rangeset.RowMajor {
		fast = sec.Axis(sec.Rank() - 1)
	}
	runs := 1
	for i := 1; i < fast.Size(); i++ {
		if fast.At(i) != fast.At(i-1)+1 {
			runs++
		}
	}
	return runs * (sec.Size() / fast.Size())
}

// checkGatherPlan asserts the invariants on rank's Gather plan: a
// column-major pack list is maximal; a row-major one over storage of rank
// ≥ 2 steps by the layout stride and is (d) *not* merged — it holds
// exactly the fast-axis runs; root's scatter lists are stride 1 in the
// output's own order, hence maximal; and all conserve element counts.
func checkGatherPlan(d *dist.Distribution, rank, root int, order rangeset.Order, es int) {
	pl := buildGatherPlan(d, rank, d.Tasks(), root, order, es)
	mine := d.Assigned(rank)
	what := fmt.Sprintf("gather plan of rank %d (%v)", rank, order)
	if n := sumRuns(pl.packRuns); n != mine.Size() || pl.packBytes != n*es {
		panic(fmt.Sprintf("%s: packs %d elements / %d bytes, assigned section has %d", what, n, pl.packBytes, mine.Size()))
	}
	if order == rangeset.ColMajor {
		if pl.packStride != 1 {
			panic(what + ": column-major pack stride is not 1")
		}
		checkMaximal(what+" pack", pl.packRuns)
	} else if want := fastAxisRuns(mine, order); len(pl.packRuns) != want {
		panic(fmt.Sprintf("%s: %d pack runs at stride %d, want the %d fast-axis runs unmerged", what, len(pl.packRuns), pl.packStride, want))
	}
	if rank != root {
		if pl.scatter != nil {
			panic(what + ": non-root holds scatter lists")
		}
		return
	}
	for q, runs := range pl.scatter {
		checkMaximal(fmt.Sprintf("%s scatter[%d]", what, q), runs)
		if sec := d.Assigned(q); sumRuns(runs) != sec.Size() {
			panic(fmt.Sprintf("%s: scatter[%d] covers %d elements, section has %d", what, q, sumRuns(runs), sec.Size()))
		}
	}
}

// rankVal is a fill that differs between the copies of one element held
// by different tasks, so a shadow that was not refreshed from its owner —
// or refreshed from the wrong copy — shows.
func rankVal(rank int) func(c []int) float64 {
	return func(c []int) float64 { return coordVal(c) + float64(rank)*1e12 }
}

// assignAndCompare runs dst <- src through the planned Assign and through
// assignReference on twin arrays, cold (plan built) and warm (replayed),
// and requires bitwise-equal storage — and, independently of both (the
// reference packs through the same enumerator), the element-wise answer:
// every mapped element of dst that some task of src assigns holds that
// owner's value, every other one keeps its sentinel.
func assignAndCompare(c *msg.Comm, srcD, dstD *dist.Distribution) {
	src, err := New[float64](c, "a", srcD)
	if err != nil {
		panic(err)
	}
	planned, err := New[float64](c, "b", dstD)
	if err != nil {
		panic(err)
	}
	reference, err := New[float64](c, "c", dstD)
	if err != nil {
		panic(err)
	}
	const sentinel = -7.5
	for pass := 0; pass < 2; pass++ {
		bias := float64(pass) * 0.125
		src.Fill(func(cd []int) float64 { return rankVal(c.Rank())(cd) + bias })
		for i := range planned.local {
			planned.local[i], reference.local[i] = sentinel, sentinel
		}
		if err := Assign(planned, src); err != nil {
			panic(err)
		}
		if err := assignReference(reference, src); err != nil {
			panic(err)
		}
		i := 0
		planned.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			want := sentinel
			if o := owner(srcD, cd); o >= 0 {
				want = rankVal(o)(cd) + bias
			}
			if planned.local[i] != want || reference.local[i] != want {
				panic(fmt.Sprintf("pass %d, rank %d, element %v: planned %v, reference %v, element-wise answer %v",
					pass, c.Rank(), cd, planned.local[i], reference.local[i], want))
			}
			i++
		})
	}
}

// TestAssignPaperShape is the planned-vs-reference oracle on the paper's
// array shape: between the two block grids of every case in both
// directions, onto and back from every round of the canonical
// one-piece-per-writer distribution (a checkpoint's write and a restart's
// read), and as the self-assignment A <- A that refreshes shadows.
func TestAssignPaperShape(t *testing.T) {
	for _, sc := range paperShapeCases(t) {
		t.Run(sc.name, func(t *testing.T) {
			pairs := [][2]*dist.Distribution{{sc.src, sc.dst}, {sc.dst, sc.src}, {sc.src, sc.src}, {sc.dst, sc.dst}}
			for _, order := range []rangeset.Order{rangeset.ColMajor, rangeset.RowMajor} {
				for _, round := range canonicalRounds(t, sc.g, sc.tasks(), order) {
					pairs = append(pairs, [2]*dist.Distribution{sc.src, round}, [2]*dist.Distribution{round, sc.dst})
				}
			}
			FlushPlans()
			mustRun(t, sc.tasks(), func(c *msg.Comm) {
				for _, pr := range pairs {
					if c.Rank() == 0 {
						checkAssignPlans(pr[0], pr[1], 8)
					}
					assignAndCompare(c, pr[0], pr[1])
				}
				// ExchangeShadows proper: one array as both sides, so the
				// self-overlap copies storage onto itself.
				for _, d := range []*dist.Distribution{sc.src, sc.dst} {
					a, _ := New[float64](c, "s", d)
					a.Fill(rankVal(c.Rank()))
					for pass := 0; pass < 2; pass++ {
						if err := a.ExchangeShadows(); err != nil {
							panic(err)
						}
						i := 0
						a.Mapped().Each(rangeset.ColMajor, func(cd []int) {
							if want := rankVal(owner(d, cd))(cd); a.local[i] != want {
								panic(fmt.Sprintf("exchange pass %d, rank %d, element %v: %v, owner holds %v", pass, c.Rank(), cd, a.local[i], want))
							}
							i++
						})
					}
				}
			})
		})
	}
}

// TestSelfOverlapSegmentsDiffer pins invariant (c) where it bites: an
// unshadowed block assigned onto the same block with a shadow. The
// overlap is the whole block — one extent of the source's storage, many
// of the padded destination's — so the two lists have different lengths,
// cover the same elements, and the two-cursor copy must land exactly what
// the reference lands (TestAssignPaperShape's shadow2 cases compare the
// storage; this asserts the segmentation really differs).
func TestSelfOverlapSegmentsDiffer(t *testing.T) {
	g := rangeset.Box([]int{0, 0, 0, 0}, []int{4, 11, 11, 11})
	grid := []int{1, 2, 2, 1}
	src := mustBlock(t, g, grid)
	dst := mustShadow(t, src, grid)
	for r, pl := range checkAssignPlans(src, dst, 8) {
		if len(pl.selfSrc) != 1 {
			t.Errorf("rank %d: unshadowed block is %d source extents, want 1", r, len(pl.selfSrc))
		}
		if len(pl.selfDst) <= len(pl.selfSrc) {
			t.Errorf("rank %d: shadowed destination is %d extents, source %d: segmentation does not differ", r, len(pl.selfDst), len(pl.selfSrc))
		}
	}
	mustRun(t, 4, func(c *msg.Comm) {
		assignAndCompare(c, src, dst)
		assignAndCompare(c, dst, src)
	})
}

// TestPlanFootprintBTShape is the footprint guard, on counts alone so it
// cannot flake: 5 × 48³ over {1,2,2,1} assigned onto the canonical
// one-piece-per-writer distribution (a checkpoint's redistribution). Per
// fast-axis run — 5 elements — the plans used to hold one xferRun on the
// pack side and one on the unpack side, elements/5 each over the four
// ranks. Merged, a source block's share of a piece is one extent of its
// own storage, so the pack side (send + selfSrc) must be under 1 % of
// elements/5; on the unpack side a run ends where the piece's storage
// crosses the source grid's cut of axis 1, so it is 5 × 24 elements long:
// elements/120, 4.2 % of elements/5, asserted exactly.
func TestPlanFootprintBTShape(t *testing.T) {
	const n = 48
	g := rangeset.Box([]int{0, 0, 0, 0}, []int{4, n - 1, n - 1, n - 1})
	src := mustBlock(t, g, []int{1, 2, 2, 1})
	rounds := canonicalRounds(t, g, 4, rangeset.ColMajor)
	if len(rounds) != 1 {
		t.Fatalf("%d canonical rounds, want 1", len(rounds))
	}
	before := g.Size() / 5
	var pack, unpack, fast int
	for r, pl := range checkAssignPlans(src, rounds[0], 8) {
		p, u := planRuns(pl)
		pack, unpack = pack+p, unpack+u
		fast += fastAxisRuns(src.Assigned(r), rangeset.ColMajor)
	}
	if fast != before {
		t.Fatalf("fast-axis runs of the source blocks: %d, want elements/5 = %d", fast, before)
	}
	t.Logf("5x48^3 {1,2,2,1} -> canonical: %d fast-axis runs per side before; pack side %d, unpack side %d now", before, pack, unpack)
	if pack*100 > before {
		t.Errorf("pack side holds %d runs, more than 1%% of %d", pack, before)
	}
	if want := g.Size() / (5 * n / 2); unpack != want {
		t.Errorf("unpack side holds %d runs, want %d (one per 5x24 extent)", unpack, want)
	}
}

// TestGatherPaperShape checks Gather in both orders against the
// element-wise answer on every distribution of the paper-shape cases,
// cold and warm, with the plan invariants — including (d), the unmerged
// row-major pack side — asserted on every rank's plan.
func TestGatherPaperShape(t *testing.T) {
	for _, sc := range paperShapeCases(t) {
		t.Run(sc.name, func(t *testing.T) {
			FlushPlans()
			mustRun(t, sc.tasks(), func(c *msg.Comm) {
				for _, d := range []*dist.Distribution{sc.src, sc.dst} {
					a, _ := New[float64](c, "u", d)
					a.Fill(rankVal(c.Rank()))
					for _, order := range []rangeset.Order{rangeset.ColMajor, rangeset.RowMajor} {
						root := int(order) % c.Size()
						checkGatherPlan(d, c.Rank(), root, order, 8)
						for pass := 0; pass < 2; pass++ {
							full, err := a.Gather(root, order)
							if err != nil {
								panic(err)
							}
							if c.Rank() != root {
								if full != nil {
									panic("non-root received a gather result")
								}
								continue
							}
							for off, v := range full {
								cd := sc.g.Coord(off, order)
								if want := rankVal(owner(d, cd))(cd); v != want {
									panic(fmt.Sprintf("gather %v pass %d: element %v is %v, owner holds %v", order, pass, cd, v, want))
								}
							}
						}
					}
				}
			})
		})
	}
}

// TestPackUnpackPaperShape holds PackSectionInto/UnpackSection to the
// element-wise packRef/unpackRef on the paper shape, both orders: random
// sub-sections of the mapped section, the mapped section itself (a stream
// piece on its canonical distribution: one extent), and the assigned
// section inside a shadowed mapping.
func TestPackUnpackPaperShape(t *testing.T) {
	rng := rand.New(rand.NewSource(182))
	for _, sc := range paperShapeCases(t) {
		wants := []rangeset.Slice{sc.g}
		for i := 0; i < 4; i++ {
			wants = append(wants, randomSection(rng, sc.g))
		}
		fill := make([]byte, 1024)
		rng.Read(fill)
		t.Run(sc.name, func(t *testing.T) {
			dists := []*dist.Distribution{sc.src, sc.dst}
			dists = append(dists, canonicalRounds(t, sc.g, sc.tasks(), rangeset.ColMajor)...)
			mustRun(t, sc.tasks(), func(c *msg.Comm) {
				for _, d := range dists {
					a, _ := New[float64](c, "u", d)
					for i := range a.local {
						a.local[i] = getElem[float64](fill[(i*8)%512:])
					}
					secs := []rangeset.Slice{a.Assigned()}
					for _, w := range wants {
						secs = append(secs, w.Intersect(a.Mapped()))
					}
					for _, sec := range secs {
						for _, order := range []rangeset.Order{rangeset.ColMajor, rangeset.RowMajor} {
							packUnpackCompare(a, sec, order)
						}
					}
				}
			})
		})
	}
}

// packUnpackCompare checks one section of a against the element-wise
// references: the packed bytes, and the storage of two zeroed twins after
// unpacking those bytes through either path.
func packUnpackCompare[T Elem](a *Array[T], sec rangeset.Slice, order rangeset.Order) {
	got, err := a.PackSection(sec, order)
	if err != nil {
		panic(err)
	}
	if !bytes.Equal(got, packRef(a, sec, order)) {
		panic(fmt.Sprintf("pack of %v (%v) in %v differs from element-wise reference", sec, order, a.Mapped()))
	}
	b1, _ := New[T](a.comm, "v1", a.d)
	b2, _ := New[T](a.comm, "v2", a.d)
	if err := b1.UnpackSection(sec, order, got); err != nil {
		panic(err)
	}
	unpackRef(b2, sec, order, got)
	for i := range b1.local {
		if b1.local[i] != b2.local[i] {
			panic(fmt.Sprintf("unpack of %v (%v) in %v differs from element-wise reference", sec, order, a.Mapped()))
		}
	}
	if err := a.PackSectionInto(sec, order, make([]byte, len(got)+1)); err == nil {
		panic("oversized buffer accepted")
	}
	if err := a.UnpackSection(sec, order, got[:max(len(got)-1, 0)]); err == nil && len(got) > 0 {
		panic("undersized buffer accepted")
	}
}

// TestPackRank0 is the degenerate end of the enumerator: a rank-0 space
// has one scalar element, storageRuns emits the single run (0, 1), and
// both orders pack and unpack it like the element-wise reference.
func TestPackRank0(t *testing.T) {
	g := rangeset.NewSlice()
	d, err := dist.Irregular(g, []rangeset.Slice{g}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, 1, func(c *msg.Comm) {
		a, err := New[float64](c, "scalar", d)
		if err != nil {
			panic(err)
		}
		if len(a.local) != 1 {
			panic("rank-0 array does not hold one element")
		}
		a.local[0] = 2.5
		for _, order := range []rangeset.Order{rangeset.ColMajor, rangeset.RowMajor} {
			packUnpackCompare(a, g, order)
		}
	})
}

// owner returns the task whose assigned section of d contains c, or -1.
func owner(d *dist.Distribution, c []int) int {
	for r := 0; r < d.Tasks(); r++ {
		if d.Assigned(r).Contains(c) {
			return r
		}
	}
	return -1
}

// total sums the sizes of section(r) over d's tasks: d.Assigned counts
// each element once, d.Mapped counts shadow copies multiply.
func total(d *dist.Distribution, section func(r int) rangeset.Slice) int {
	n := 0
	for r := 0; r < d.Tasks(); r++ {
		n += section(r).Size()
	}
	return n
}
