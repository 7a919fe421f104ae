package array

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// The piece exchange is held to two oracles. On a communicator, the path it
// replaced: assignReference into a fresh array on the round's canonical
// distribution and PackSection of the piece (and the mirror image on the way
// back). Without one, FuzzPiecePlan expands every run of every rank's plan
// and compares it with rangeset.Each + Slice.Offset, which share no code
// with the planner. Both draw their cases from decodePieceCase.

// pieceCase is one drawn configuration: an array distribution to pack
// from, a second one over the same tasks to unpack into, the rounds of
// canonical piece distributions a stream of some section would use, and
// the stream order.
type pieceCase struct {
	d, d2  *dist.Distribution
	rounds []*dist.Distribution
	order  rangeset.Order
}

func (pc pieceCase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "order %v, array %v / %v, rounds:", pc.order, pc.d, pc.d2)
	for _, r := range pc.rounds {
		fmt.Fprintf(&b, " %v", r)
	}
	return b.String()
}

// decodeDist draws a distribution of g over the task grid: block,
// block-cyclic, or irregular with every axis position dealt to an
// arbitrary grid row (rows, and so ranks, may end up empty); then perhaps
// shadows, and perhaps one rank stripped of its section, which leaves a
// slab of g assigned to nobody.
func decodeDist(s *byteSource, g rangeset.Slice, grid []int) *dist.Distribution {
	var d *dist.Distribution
	var err error
	switch s.next(3) {
	case 0:
		d, err = dist.Block(g, grid)
	case 1:
		blocks := make([]int, len(grid))
		for i := range blocks {
			blocks[i] = 1 + s.next(2)
		}
		d, err = dist.BlockCyclic(g, grid, blocks)
	default:
		rows := make([][]rangeset.Range, len(grid))
		tasks := 1
		for i, k := range grid {
			vals := make([][]int, k)
			for p := 0; p < g.Axis(i).Size(); p++ {
				r := s.next(k)
				vals[r] = append(vals[r], g.Axis(i).At(p))
			}
			for _, v := range vals {
				rows[i] = append(rows[i], rangeset.List(v...))
			}
			tasks *= k
		}
		assigned := make([]rangeset.Slice, tasks)
		for t := range assigned {
			rs := make([]rangeset.Range, len(grid))
			for i, rem := 0, t; i < len(grid); i, rem = i+1, rem/grid[i] {
				rs[i] = rows[i][rem%grid[i]]
			}
			assigned[t] = rangeset.NewSlice(rs...)
		}
		d, err = dist.Irregular(g, assigned, nil)
	}
	if err != nil {
		panic(err)
	}
	if s.next(2) == 1 {
		w := make([]int, len(grid))
		for i := range w {
			w[i] = s.next(2)
		}
		if d, err = d.WithShadow(w); err != nil {
			panic(err)
		}
	}
	if t := s.next(d.Tasks() + 2); t < d.Tasks() {
		assigned, mapped := make([]rangeset.Slice, d.Tasks()), make([]rangeset.Slice, d.Tasks())
		for q := range assigned {
			assigned[q], mapped[q] = d.Assigned(q), d.Mapped(q)
		}
		assigned[t], mapped[t] = g.EmptyLike(), g.EmptyLike()
		if d, err = dist.Irregular(g, assigned, mapped); err != nil {
			panic(err)
		}
	}
	return d
}

// decodePieceCase draws a space of rank 1–4 (axes of 1–5 values, dense,
// stepped or listed) over 1–6 tasks, two distributions of it, a section
// (often all of it), and the rounds stream.buildRounds would make of the
// section's partition: writers between one and all tasks, or a single
// designated I/O task; more pieces than writers, fewer, and now and then
// an empty one.
func decodePieceCase(data []byte) pieceCase {
	s := &byteSource{data}
	pc := pieceCase{order: rangeset.Order(s.next(2))}
	rank := 1 + s.next(4)
	axes, sub, grid := make([]rangeset.Range, rank), make([]rangeset.Range, rank), make([]int, rank)
	tasks := 1
	for i := range axes {
		axes[i] = decodeRangeUpTo(s, 5)
		if grid[i] = 1 + s.next(min(axes[i].Size(), 3)); tasks*grid[i] > 6 {
			grid[i] = 1
		}
		tasks *= grid[i]
		sub[i] = axes[i]
		if s.next(3) == 0 {
			sub[i] = decodeSubRange(s, axes[i])
		}
	}
	g := rangeset.NewSlice(axes...)
	pc.d, pc.d2 = decodeDist(s, g, grid), decodeDist(s, g, grid)

	pieces := rangeset.NewSlice(sub...).Intersect(g).Partition(1+s.next(2*tasks+2), pc.order)
	if len(pieces) > 0 && s.next(4) == 0 {
		pieces[s.next(len(pieces))] = g.EmptyLike()
	}
	writers, ioTask := 1+s.next(tasks), -1
	if s.next(4) == 0 {
		writers, ioTask = 1, s.next(tasks)
	}
	for base := 0; base < len(pieces); base += writers {
		assigned := make([]rangeset.Slice, tasks)
		for i := range assigned {
			assigned[i] = g.EmptyLike()
		}
		for i, p := range pieces[base:min(base+writers, len(pieces))] {
			if ioTask >= 0 {
				i = ioTask
			}
			assigned[i] = p
		}
		round, err := dist.Irregular(g, assigned, nil)
		if err != nil {
			panic(err)
		}
		pc.rounds = append(pc.rounds, round)
	}
	return pc
}

// pieceCaseSeeds are decoder inputs for the differential test and the
// fuzzer's corpus: random byte strings, every rank 1–4 and both orders
// among them.
func pieceCaseSeeds(n int) [][]byte {
	rng := rand.New(rand.NewSource(231))
	seeds := make([][]byte, n)
	for i := range seeds {
		seeds[i] = make([]byte, 160)
		rng.Read(seeds[i])
		seeds[i][0], seeds[i][1] = byte(i&1), byte(i>>1)
	}
	return seeds
}

// mark is a non-zero value of T that depends on the coordinate, so that a
// misplaced element, a zero (undefined) one and an untouched sentinel are
// told apart.
func mark[T Elem](c []int) T {
	h := 7
	for _, x := range c {
		h = h*31 + x + 3
	}
	return T(1 + (h%97+97)%97)
}

// poisoned returns a buffer of n 0xFF bytes: what a recycled piece buffer
// holds as far as the exchange may assume.
func poisoned(n int) []byte { return bytes.Repeat([]byte{0xFF}, n) }

// pieceOracle runs one drawn case on c for element type T. Every round is
// packed into a poisoned buffer and compared with the auxiliary-array path
// (assignReference into the canonical distribution, PackSection of the
// piece); the bytes are then unpacked into an array of sentinels on the
// case's second distribution and compared, element for element of local
// storage, with UnpackSection into the auxiliary array + assignReference.
func pieceOracle[T Elem](c *msg.Comm, pc pieceCase) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	fresh := func(name string, d *dist.Distribution, f func([]int) T) *Array[T] {
		a, err := New[T](c, name, d)
		must(err)
		if f != nil {
			a.Fill(f)
		}
		return a
	}
	es := ElemSize[T]()
	a := fresh("a", pc.d, mark[T])
	sentinel := func([]int) T { return 101 }
	b, ref := fresh("b", pc.d2, sentinel), fresh("ref", pc.d2, sentinel)
	for ri, round := range pc.rounds {
		piece := round.Mapped(c.Rank())
		aux := fresh("aux", round, nil)
		must(assignReference(aux, a))
		want, err := aux.PackSection(piece, pc.order)
		must(err)
		var wantSent int64
		for q := 0; q < c.Size(); q++ {
			if q != c.Rank() {
				wantSent += int64(a.Assigned().Intersect(round.Mapped(q)).Size() * es)
			}
		}
		rd := NewRound(round)
		for pass := 0; pass < 2; pass++ { // plan built, plan replayed
			got := poisoned(len(want))
			sent, err := PackPieces(a, rd, pc.order, got)
			must(err)
			if !bytes.Equal(got, want) {
				panic(fmt.Sprintf("round %d pass %d rank %d: PackPieces\n got %v\nwant %v", ri, pass, c.Rank(), got, want))
			}
			if sent != wantSent {
				panic(fmt.Sprintf("round %d rank %d: PackPieces reports %d bytes sent, the intersections hold %d", ri, c.Rank(), sent, wantSent))
			}
		}

		back := fresh("back", round, nil)
		must(back.UnpackSection(piece, pc.order, want))
		must(assignReference(ref, back))
		if _, err := UnpackPieces(b, rd, pc.order, want); err != nil {
			panic(err)
		}
		for i, v := range ref.Local() {
			if b.Local()[i] != v {
				panic(fmt.Sprintf("round %d rank %d: UnpackPieces left local[%d] = %v, reference %v", ri, c.Rank(), i, b.Local()[i], v))
			}
		}
	}
}

// TestPieceExchangeMatchesAuxiliaryArray is the differential oracle of the
// exchange: seeded random cases of decodePieceCase, all five element
// types.
func TestPieceExchangeMatchesAuxiliaryArray(t *testing.T) {
	ranks, orders, holes, shadows, io, idle := map[int]int{}, map[rangeset.Order]int{}, 0, 0, 0, 0
	for i, seed := range pieceCaseSeeds(120) {
		pc := decodePieceCase(seed)
		ranks[pc.d.Rank()]++
		orders[pc.order]++
		if total(pc.d, pc.d.Assigned) != pc.d.Global().Size() {
			holes++
		}
		if total(pc.d, pc.d.Mapped) > total(pc.d, pc.d.Assigned) {
			shadows++
		}
		if len(pc.rounds) > 1 && total(pc.rounds[0], pc.rounds[0].Assigned) == pc.rounds[0].Assigned(0).Size() {
			io++
		}
		for q := 0; q < pc.d.Tasks(); q++ {
			if pc.d.Assigned(q).Empty() {
				idle++
				break
			}
		}
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("case %d: %v", i, pc)
				}
			}()
			mustRun(t, pc.d.Tasks(), func(c *msg.Comm) {
				switch i % 5 {
				case 0, 1:
					pieceOracle[float64](c, pc)
				case 2:
					pieceOracle[int32](c, pc)
				case 3:
					pieceOracle[uint8](c, pc)
				default:
					pieceOracle[float32](c, pc)
					pieceOracle[int64](c, pc)
				}
			})
		}()
	}
	// The draw must reach what the test claims to cover.
	for r := 1; r <= 4; r++ {
		if ranks[r] < 5 {
			t.Errorf("only %d cases of rank %d", ranks[r], r)
		}
	}
	if orders[rangeset.ColMajor] < 20 || orders[rangeset.RowMajor] < 20 || holes < 10 || shadows < 10 || io < 5 || idle < 10 {
		t.Errorf("thin coverage: orders %v, %d with unassigned elements, %d shadowed, %d through one I/O task, %d with an empty rank",
			orders, holes, shadows, io, idle)
	}
}

// expandRuns lists the element offsets runs address, at the given step.
func expandRuns(runs []xferRun, step int) []int {
	var offs []int
	for _, r := range runs {
		for k := 0; k < r.n; k++ {
			offs = append(offs, r.off+k*step)
		}
	}
	return offs
}

// walkOffsets is the element-wise reference: sec walked in order, each
// coordinate located in space's layout linearization.
func walkOffsets(sec, space rangeset.Slice, layout, order rangeset.Order) []int {
	var offs []int
	sec.Each(order, func(c []int) {
		o, ok := space.Offset(c, layout)
		if !ok {
			panic(fmt.Sprintf("coordinate %v of %v outside %v", c, sec, space))
		}
		offs = append(offs, o)
	})
	return offs
}

// peerRuns finds the runs a plan holds for peer q: its own overlap or
// the entry of its sparse list (nil when they trade nothing).
func peerRuns(self []xferRun, list []peerXfer, rank, q int) []xferRun {
	if q == rank {
		return self
	}
	for _, px := range list {
		if px.peer == q {
			return px.runs
		}
	}
	return nil
}

// checkPiecePlans builds both directions' plans of one round for every
// rank and checks, pair by pair, that the array side's runs and the piece
// side's runs are the element-wise walk of the pair's intersection — in
// the array's column-major storage and in the piece's own linearization —
// that the graph masks and byte counts agree with them, and that the
// bytes landing in a piece hit each position at most once and, when
// landBytes says the piece is tiled, exactly once.
func checkPiecePlans(d, round *dist.Distribution, order rangeset.Order, es int) error {
	size := d.Tasks()
	for _, side := range []pieceSide{pieceDst, pieceSrc} {
		plans := make([]*assignPlan, size)
		for r := range plans {
			if side == pieceDst {
				plans[r] = buildAssignPlan(d, round, r, size, es, order, side)
			} else {
				plans[r] = buildAssignPlan(round, d, r, size, es, order, side)
			}
		}
		for h := 0; h < size; h++ { // the piece's holder
			piece := round.Mapped(h)
			hits := make([]int, piece.Size())
			for r := 0; r < size; r++ { // the array side
				mapped, sec := d.Mapped(r), d.Assigned(r).Intersect(piece)
				arr := peerRuns(plans[r].selfSrc, plans[r].send, r, h)
				pcs := peerRuns(plans[h].selfDst, plans[h].recv, h, r)
				active := [2]bool{plans[r].sendTo[h], plans[h].recvFrom[r]}
				if side == pieceSrc {
					sec = piece.Intersect(mapped)
					arr = peerRuns(plans[r].selfDst, plans[r].recv, r, h)
					pcs = peerRuns(plans[h].selfSrc, plans[h].send, h, r)
					active = [2]bool{plans[r].recvFrom[h], plans[h].sendTo[r]}
				}
				what := fmt.Sprintf("side %d, holder %d, rank %d, section %v", side, h, r, sec)
				if want := r != h && !sec.Empty(); active != [2]bool{want, want} {
					return fmt.Errorf("%s: graph masks %v, want %v", what, active, want)
				}
				if got, want := expandRuns(arr, runStride(mapped, order)), walkOffsets(sec, mapped, rangeset.ColMajor, order); fmt.Sprint(got) != fmt.Sprint(want) {
					return fmt.Errorf("%s: array runs %v address %v, element-wise walk %v", what, arr, got, want)
				}
				got, want := expandRuns(pcs, 1), walkOffsets(sec, piece, order, order)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					return fmt.Errorf("%s: piece runs %v address %v, element-wise walk %v", what, pcs, got, want)
				}
				for _, o := range got {
					hits[o]++
				}
			}
			if side == pieceSrc {
				continue // a piece element may be read by several ranks' copies, or by none
			}
			landed := 0
			for o, n := range hits {
				if n > 1 {
					return fmt.Errorf("holder %d: piece position %d written %d times", h, o, n)
				}
				landed += n
			}
			if plans[h].landBytes != landed*es {
				return fmt.Errorf("holder %d: landBytes %d, %d positions × %d bytes land", h, plans[h].landBytes, landed, es)
			}
		}
		for r, pl := range plans {
			var remote int64
			for _, px := range pl.send {
				if px.bytes != sumRuns(px.runs)*es {
					return fmt.Errorf("side %d rank %d: %d bytes to peer %d for %d elements", side, r, px.bytes, px.peer, sumRuns(px.runs))
				}
				remote += int64(px.bytes)
			}
			if pl.remoteBytes != remote {
				return fmt.Errorf("side %d rank %d: remoteBytes %d, sends add up to %d", side, r, pl.remoteBytes, remote)
			}
		}
	}
	return nil
}

// TestPiecePlanMatchesElementwise runs the plan-level check on the seeds.
func TestPiecePlanMatchesElementwise(t *testing.T) {
	for i, seed := range pieceCaseSeeds(200) {
		pc := decodePieceCase(seed)
		for _, round := range pc.rounds {
			if err := checkPiecePlans(pc.d, round, pc.order, 1+i%8); err != nil {
				t.Fatalf("case %d (%v): %v", i, pc, err)
			}
		}
	}
}

// FuzzPiecePlan mutates the decoder's input; `make fuzz` finds it by name.
func FuzzPiecePlan(f *testing.F) {
	for _, b := range pieceCaseSeeds(16) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pc := decodePieceCase(data)
		for _, round := range pc.rounds {
			if err := checkPiecePlans(pc.d, round, pc.order, 4); err != nil {
				t.Fatalf("%v: %v", pc, err)
			}
		}
	})
}

// TestPieceExchangeChecksEveryCall pins the per-call checks the exchange
// inherited from Assign: the round must describe the array's own index
// space on the array's own tasks, and the buffer must be the piece.
func TestPieceExchangeChecksEveryCall(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{7, 5})
	other := rangeset.Box([]int{0, 0}, []int{7, 6})
	round := canonicalRounds(t, g, 2, rangeset.ColMajor)[0]
	elsewhere := canonicalRounds(t, other, 2, rangeset.ColMajor)[0]
	wider := canonicalRounds(t, g, 3, rangeset.ColMajor)[0]
	d := mustBlock(t, g, []int{2, 1})
	mustRun(t, 2, func(c *msg.Comm) {
		a, err := New[float64](c, "a", d)
		if err != nil {
			panic(err)
		}
		n := round.Mapped(c.Rank()).Size() * 8
		refused := func(what string, round *dist.Distribution, buf []byte, msg string) {
			for name, f := range map[string]func(*Array[float64], *Round, rangeset.Order, []byte) (int64, error){
				"PackPieces": PackPieces[float64], "UnpackPieces": UnpackPieces[float64],
			} {
				if _, err := f(a, NewRound(round), rangeset.ColMajor, buf); err == nil || !strings.Contains(err.Error(), msg) {
					panic(fmt.Sprintf("%s with %s: error %v, want one naming %q", name, what, err, msg))
				}
			}
		}
		refused("another index space", elsewhere, make([]byte, n), "exchanged with an array over")
		refused("a round over three tasks", wider, make([]byte, n), "spans 3 tasks")
		refused("a short buffer", round, make([]byte, n-8), "in a buffer of")
		refused("no buffer", round, nil, "in a buffer of")
		// A refused call is local and leaves the collective state alone.
		buf := make([]byte, n)
		if _, err := PackPieces(a, NewRound(round), rangeset.ColMajor, buf); err != nil {
			panic(err)
		}
	})
}

// TestPiecePlansAreCountedAndFlushed pins what the benchmark reads: piece
// plans are counted by PlanCacheStats, kept on the rank's Round, keyed by
// array, direction and order, and dropped by FlushPlans.
func TestPiecePlansAreCountedAndFlushed(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{7, 5})
	d := mustBlock(t, g, []int{1, 2})
	rounds := canonicalRounds(t, g, 2, rangeset.RowMajor)
	// exchange runs reps passes on a fresh application instance whose
	// ranks wrap the rounds once, as a stream plan does; with flush, rank
	// 0 calls FlushPlans between passes.
	exchange := func(reps int, flush bool) {
		mustRun(t, 2, func(c *msg.Comm) {
			a, err := New[int32](c, "a", d)
			if err != nil {
				panic(err)
			}
			var rds []*Round
			for _, round := range rounds {
				rds = append(rds, NewRound(round))
			}
			for k := 0; k < reps; k++ {
				if flush && k > 0 {
					c.Barrier()
					if c.Rank() == 0 {
						FlushPlans()
					}
					c.Barrier()
				}
				for _, rd := range rds {
					buf := make([]byte, rd.d.Mapped(c.Rank()).Size()*4)
					if _, err := PackPieces(a, rd, rangeset.RowMajor, buf); err != nil {
						panic(err)
					}
					if _, err := UnpackPieces(a, rd, rangeset.RowMajor, buf); err != nil {
						panic(err)
					}
				}
			}
		})
	}
	perPass := uint64(2 * 2 * len(rounds)) // ranks × directions × rounds
	FlushPlans()
	h0, m0 := PlanCacheStats()
	stats := func() (hits, misses uint64) {
		h, m := PlanCacheStats()
		return h - h0, m - m0
	}
	exchange(3, false)
	if h, m := stats(); m != perPass || h != 2*perPass {
		t.Fatalf("one instance, three passes: hits=%d misses=%d, want %d/%d", h, m, 2*perPass, perPass)
	}
	exchange(1, false) // new communicators, new rounds: nothing may be replayed
	if h, m := stats(); m != 2*perPass || h != 2*perPass {
		t.Fatalf("second instance: hits=%d misses=%d, want %d/%d", h, m, 2*perPass, 2*perPass)
	}
	exchange(2, true) // a flush between the passes: the second replans
	if h, m := stats(); m != 4*perPass || h != 2*perPass {
		t.Fatalf("flushed instance: hits=%d misses=%d, want %d/%d", h, m, 2*perPass, 4*perPass)
	}
}
