package stream

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"drms/internal/array"
	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// TestStreamWarmPlanByteIdentity is the oracle for the streaming plan
// cache: within one application instance, the first Write of a
// configuration builds the plan and every later Write replays it — and
// warm output must be byte-identical to cold output, for both element
// orders and for random sections, distributions, and piece sizes.
func TestStreamWarmPlanByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 20; iter++ {
		rows := 3 + rng.Intn(10)
		cols := 3 + rng.Intn(10)
		g := rangeset.Box([]int{0, 0}, []int{rows - 1, cols - 1})
		x := randomSection(rng, g)
		order := rangeset.Order(rng.Intn(2))
		tasks := 1 + rng.Intn(4)
		o := Options{
			Order:      order,
			Writers:    rng.Intn(tasks + 1),
			PieceBytes: 8 * (1 + rng.Intn(40)),
		}
		fs := testFS()
		FlushPlans()
		h0, _ := PlanCacheStats()
		grid := dist.FactorGrid(tasks, 2, g.Shape())
		mustRun(t, tasks, func(c *msg.Comm) {
			d, err := dist.Block(g, grid)
			if err != nil {
				panic(err)
			}
			a, err := array.New[float64](c, "u", d)
			if err != nil {
				panic(err)
			}
			a.Fill(coordVal)
			if _, err := Write(a, x, fs, "cold", o); err != nil {
				panic(err)
			}
			if _, err := Write(a, x, fs, "warm", o); err != nil {
				panic(err)
			}
		})
		if h, _ := PlanCacheStats(); h-h0 < uint64(tasks) {
			t.Fatalf("iter %d: second Write hit the plan cache only %d times for %d tasks", iter, h-h0, tasks)
		}
		want := referenceStream(x, order)
		for _, name := range []string{"cold", "warm"} {
			got := make([]byte, len(want))
			if err := fs.ReadAt(0, name, got, 0); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("iter %d: %s stream of %v differs from linearization", iter, name, x)
			}
		}
	}
}

// TestStreamWarmPlanReadBack checks the read side of plan reuse: a warm
// Read (same configuration as a preceding Write within one instance)
// restores the section exactly.
func TestStreamWarmPlanReadBack(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{11, 9})
	x := rangeset.Box([]int{1, 1}, []int{10, 8})
	for _, order := range []rangeset.Order{rangeset.ColMajor, rangeset.RowMajor} {
		o := Options{Order: order, PieceBytes: 256}
		fs := testFS()
		mustRun(t, 4, func(c *msg.Comm) {
			a, err := array.New[float64](c, "u", mustBlock(g, []int{2, 2}))
			if err != nil {
				panic(err)
			}
			a.Fill(coordVal)
			if _, err := Write(a, x, fs, "s", o); err != nil {
				panic(err)
			}
			b, err := array.New[float64](c, "v", mustBlock(g, []int{4, 1}))
			if err != nil {
				panic(err)
			}
			for round := 0; round < 3; round++ { // cold read, then warm replays
				b.Fill(func([]int) float64 { return -1 })
				if _, err := Read(b, x, fs, "s", o); err != nil {
					panic(err)
				}
				x.Each(rangeset.ColMajor, func(cd []int) {
					if b.Mapped().Contains(cd) && b.At(cd) != coordVal(cd) {
						panic(fmt.Sprintf("warm read round %d corrupted element %v", round, cd))
					}
				})
			}
		})
	}
}

// TestSequentialWarmPlanByteIdentity covers the sequential-channel path's
// plan reuse: repeated WriteTo within one instance replays the cached
// one-piece rounds and appends identical bytes.
func TestSequentialWarmPlanByteIdentity(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{9, 9})
	x := rangeset.Box([]int{0, 2}, []int{9, 7})
	o := Options{PieceBytes: 128}
	var cold, warm bytes.Buffer
	FlushPlans()
	mustRun(t, 3, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{3, 1}))
		if err != nil {
			panic(err)
		}
		a.Fill(coordVal)
		for _, sink := range []*bytes.Buffer{&cold, &warm} {
			var w io.Writer
			if c.Rank() == 1 {
				w = sink
			}
			if _, err := WriteTo(a, x, w, 1, o); err != nil {
				panic(err)
			}
		}
	})
	want := referenceStream(x, rangeset.ColMajor)
	if !bytes.Equal(cold.Bytes(), want) {
		t.Fatal("cold sequential stream differs from linearization")
	}
	if !bytes.Equal(warm.Bytes(), want) {
		t.Fatal("warm sequential stream differs from linearization")
	}
}

// TestPlanSigIdentity pins the plan-signature contract the checkpoint
// layer relies on: equal configurations produce equal signatures, and any
// change of section, element size, writer count, piece size or order
// changes the signature.
func TestPlanSigIdentity(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{15, 15})
	x := rangeset.Box([]int{0, 0}, []int{7, 15})
	base := PlanSig(g, 8, 4, Options{PieceBytes: 512})
	// Signatures are stored in checkpoint metadata: the text must not
	// change, "|base=0" included.
	if want := "(0:15, 0:15)|es=8|w=4|pb=512|ord=0|base=0"; base != want {
		t.Fatalf("PlanSig = %q, want %q", base, want)
	}
	if got := PlanSig(g, 8, 4, Options{PieceBytes: 512}); got != base {
		t.Fatal("equal configurations produced different signatures")
	}
	variants := map[string]string{
		"section":   PlanSig(x, 8, 4, Options{PieceBytes: 512}),
		"elem size": PlanSig(g, 4, 4, Options{PieceBytes: 512}),
		"writers":   PlanSig(g, 8, 4, Options{Writers: 2, PieceBytes: 512}),
		"pieces":    PlanSig(g, 8, 4, Options{PieceBytes: 256}),
		"order":     PlanSig(g, 8, 4, Options{Order: rangeset.RowMajor, PieceBytes: 512}),
	}
	for what, sig := range variants {
		if sig == base {
			t.Fatalf("changing %s left the plan signature unchanged", what)
		}
	}
	// Task count matters only through the effective writer count.
	if PlanSig(g, 8, 2, Options{Writers: 2, PieceBytes: 512}) !=
		PlanSig(g, 8, 4, Options{Writers: 2, PieceBytes: 512}) {
		t.Fatal("same effective writers, different signature")
	}
}

// TestFilteredPlansStayBounded: a long-lived writer whose delta dirties a
// new piece set nearly every time holds a flat plan count. 1 000 deltas
// over random windows of a 128-piece stream keep the full plan and at
// most maxSubPlans sub-plans, and the heap their rounds and exchange
// plans take does not grow after warm-up; a recurring set still replays.
func TestFilteredPlansStayBounded(t *testing.T) {
	const tasks, deltas, warm = 4, 1000, 100
	g := rangeset.Box([]int{0}, []int{4095})
	fs := testFS()
	heap := func() uint64 {
		var ms runtime.MemStats
		for i := 0; i < 3; i++ { // pooled buffers survive one collection
			runtime.GC()
		}
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	mustRun(t, tasks, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{tasks}))
		if err != nil {
			panic(err)
		}
		plans := func() int {
			n := 0
			for _, sp := range c.Local(tableKey{}, nil).(*planTable).plans {
				n += 1 + len(sp.subs)
			}
			return n
		}
		rng := rand.New(rand.NewSource(7)) // every rank draws the same windows
		var warmHeap uint64
		var warmPlans int
		for i := 0; i < deltas; i++ {
			// Four dirty windows of two pieces each, one per rank's block.
			var pieces []int
			for r := 0; r < tasks; r++ {
				lo := r*32 + 2*rng.Intn(16)
				pieces = append(pieces, lo, lo+1)
			}
			if _, err := Write(a, g, fs, "f", Options{PieceBytes: 256, Pieces: pieces}); err != nil {
				panic(err)
			}
			if i == warm-1 || i == deltas-1 {
				must(c.Barrier())
				if c.Rank() == 0 {
					if i == warm-1 {
						warmHeap, warmPlans = heap(), plans()
					} else if h, n := heap(), plans(); n != warmPlans || n > 1+maxSubPlans || h > warmHeap+256<<10 {
						panic(fmt.Sprintf("after %d deltas: %d plans and %d B of heap; after %d: %d plans, %d B",
							deltas, n, h, warm, warmPlans, warmHeap))
					}
				}
				must(c.Barrier())
			}
		}
		recur := Options{PieceBytes: 256, Pieces: []int{0, 1}}
		var m0 uint64
		for k := 0; k < 2; k++ {
			must(c.Barrier())
			if c.Rank() == 0 {
				_, m0 = PlanCacheStats()
			}
			must(c.Barrier())
			if _, err := Write(a, g, fs, "f", recur); err != nil {
				panic(err)
			}
		}
		must(c.Barrier())
		if _, m := PlanCacheStats(); c.Rank() == 0 && m != m0 {
			panic(fmt.Sprintf("a recurring piece set replanned: %d misses", m-m0))
		}
	})
}
