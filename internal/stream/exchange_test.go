package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"drms/internal/array"
	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// The tests below cover what changed when the auxiliary array went: a
// round's pieces land straight in pooled, dirty I/O buffers, so zeros for
// undefined elements, the buffer an in-flight write still reads, and the
// plan counters the benchmark reads all have to be pinned here.

// poisonPool makes every buffer the streaming pool hands out, recycled or
// new, arrive full of 0xFF, until the returned function is called.
func poisonPool() (restore func()) {
	piecePool.New = func() any {
		b := bytes.Repeat([]byte{0xFF}, 4<<10)
		return &b
	}
	return func() { piecePool.New = nil }
}

// slabDist distributes g's rows over three tasks and leaves rows 3–4 to
// nobody: task 0 is assigned rows 0–2, task 1 rows 5–7, task 2 nothing.
func slabDist(g rangeset.Slice) *dist.Distribution {
	rows := func(lo, hi int) rangeset.Slice { return rangeset.NewSlice(rangeset.Span(lo, hi), g.Axis(1)) }
	d, err := dist.Irregular(g, []rangeset.Slice{rows(0, 2), rows(5, 7), g.EmptyLike()}, nil)
	if err != nil {
		panic(err)
	}
	return d
}

// TestUnassignedElementsStreamAsZeros is the stale-byte hazard: elements
// no task is assigned are undefined and stream as zeros, which the
// auxiliary array's per-round clear used to guarantee. With every pooled
// buffer poisoned, a 0xFF in the stored slab means a piece the
// contributions did not tile was not cleared — in the parallel writer at
// any writer count, in the sequential one, in both orders, whether a piece
// lies wholly in the slab (nobody sends a byte) or straddles it.
func TestUnassignedElementsStreamAsZeros(t *testing.T) {
	defer poisonPool()()
	g := rangeset.Box([]int{0, 0}, []int{7, 5})
	d := slabDist(g)
	for _, order := range []rangeset.Order{rangeset.ColMajor, rangeset.RowMajor} {
		var vals []float64
		g.Each(order, func(c []int) {
			if v := coordVal(c); c[0] == 3 || c[0] == 4 {
				vals = append(vals, 0)
			} else {
				vals = append(vals, v)
			}
		})
		want := array.EncodeElems(vals)
		for _, writers := range []int{0, 2, 1, -1} { // -1: the sequential channel
			o := Options{Order: order, Writers: max(writers, 0), PieceBytes: 48}
			fs := testFS()
			var seq bytes.Buffer
			mustRun(t, 3, func(c *msg.Comm) {
				a, err := array.New[float64](c, "u", d)
				if err != nil {
					panic(err)
				}
				a.Fill(coordVal)
				for rep := 0; rep < 2; rep++ { // plans built, plans replayed
					if writers < 0 {
						var w io.Writer
						if c.Rank() == 2 {
							seq.Reset()
							w = &seq
						}
						_, err = WriteTo(a, g, w, 2, o)
					} else {
						_, err = Write(a, g, fs, "f", o)
					}
					if err != nil {
						panic(err)
					}
				}
			})
			got := seq.Bytes()
			if writers >= 0 {
				got = make([]byte, len(want))
				if err := fs.ReadAt(0, "f", got, 0); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("order %v writers %d: stream differs from the linearization with zeros in the unassigned slab\n got %v\nwant %v",
					order, writers, got, want)
			}
		}
	}
}

// TestReadSkipsWhatNobodyMapsAndWhatIsNotListed is the mirror image on the
// way back: a piece element no task maps goes nowhere, and a mapped element
// outside the listed pieces (Options.Pieces) keeps its value, on every
// copy — shadows included.
func TestReadSkipsWhatNobodyMapsAndWhatIsNotListed(t *testing.T) {
	defer poisonPool()()
	g := rangeset.Box([]int{0, 0}, []int{7, 5})
	for _, order := range []rangeset.Order{rangeset.ColMajor, rangeset.RowMajor} {
		o := Options{Order: order, PieceBytes: 48}
		fs := testFS()
		mustRun(t, 2, func(c *msg.Comm) {
			a, err := array.New[float64](c, "u", mustBlock(g, []int{1, 2}))
			if err != nil {
				panic(err)
			}
			a.Fill(coordVal)
			if _, err := Write(a, g, fs, "f", o); err != nil {
				panic(err)
			}
		})
		spans, _ := PieceSpans(g, 8, 3, o)
		listed := []int{1, len(spans) - 2}
		inListed := func(cd []int) bool {
			for _, i := range listed {
				if spans[i].Contains(cd) {
					return true
				}
			}
			return false
		}
		// Rows 3–4 are mapped by nobody; tasks 0 and 1 shadow each other's
		// edge rows.
		rows := func(lo, hi int) rangeset.Slice { return rangeset.NewSlice(rangeset.Span(lo, hi), g.Axis(1)) }
		holed, err := dist.Irregular(g,
			[]rangeset.Slice{rows(0, 2), rows(5, 7), g.EmptyLike()},
			[]rangeset.Slice{rangeset.NewSlice(rangeset.List(0, 1, 2, 5), g.Axis(1)), rangeset.NewSlice(rangeset.List(2, 5, 6, 7), g.Axis(1)), g.EmptyLike()})
		if err != nil {
			t.Fatal(err)
		}
		for _, filter := range [][]int{nil, listed} {
			mustRun(t, 3, func(c *msg.Comm) {
				b, err := array.New[float64](c, "v", holed)
				if err != nil {
					panic(err)
				}
				ro := o
				ro.Pieces = filter
				for rep := 0; rep < 2; rep++ {
					b.Fill(func([]int) float64 { return -7 })
					if _, err := Read(b, g, fs, "f", ro); err != nil {
						panic(err)
					}
					b.Mapped().Each(rangeset.ColMajor, func(cd []int) {
						want := coordVal(cd)
						if filter != nil && !inListed(cd) {
							want = -7
						}
						if b.At(cd) != want {
							panic(fmt.Sprintf("order %v filter %v rank %d: element %v = %v, want %v", order, filter, c.Rank(), cd, b.At(cd), want))
						}
					})
				}
			})
		}
	}
}

// TestExchangeLandsInTheSpareBuffer pins the write pipeline's buffer
// discipline now that the exchange itself fills the piece buffer: when
// round r+1's bytes land, the buffer of round r — which its asynchronous
// WriteAt may still be reading — must be left alone. The encoder sees each
// piece after the exchange that produced it, remembers it, and checks the
// previous one is intact; the pieces are large enough for the race detector
// to catch the write in flight as well.
func TestExchangeLandsInTheSpareBuffer(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{255, 255})
	o := Options{PieceBytes: 32 << 10}
	fs := testFS()
	mustRun(t, 2, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{1, 2}))
		if err != nil {
			panic(err)
		}
		a.Fill(coordVal)
		var prev, prevCopy []byte
		rounds := 0
		o := o
		o.EncodePiece = func(index int, offset int64, data []byte) (Encoded, error) {
			if prev != nil && !bytes.Equal(prev, prevCopy) {
				return Encoded{}, fmt.Errorf("piece %d landed in the buffer of the piece before it", index)
			}
			if prev != nil && &prev[0] == &data[0] {
				return Encoded{}, fmt.Errorf("piece %d reuses the buffer whose write may be in flight", index)
			}
			prev, prevCopy = data, bytes.Clone(data)
			rounds++
			return Encoded{Data: data}, nil
		}
		if _, err := Write(a, g, fs, "f", o); err != nil {
			panic(err)
		}
		if rounds < 4 {
			panic(fmt.Sprintf("only %d rounds: nothing overlapped", rounds))
		}
	})
	want := referenceStream(g, rangeset.ColMajor)
	got := make([]byte, len(want))
	if err := fs.ReadAt(0, "f", got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stream differs from the linearization")
	}
}

// TestPrefetchOverlapsTheExchange forces the read pipeline's overlap: the
// hook of round r — which runs after round r+1's prefetch is issued and
// before round r is exchanged — waits until that fetch has started, and
// every fetch is slow, so the spare buffer is being filled while the other
// one is exchanged out of. Without a prefetch the wait times out. A fetch
// failing in flight surfaces as the read's error.
func TestPrefetchOverlapsTheExchange(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{31, 31})
	o := Options{PieceBytes: 512}
	fs := testFS()
	mustRun(t, 2, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{2, 1}))
		if err != nil {
			panic(err)
		}
		a.Fill(coordVal)
		if _, err := Write(a, g, fs, "f", o); err != nil {
			panic(err)
		}
	})
	spans, _ := PieceSpans(g, 8, 2, o)
	boom := errors.New("fetch failed")
	for _, failAt := range []int{-1, 5} {
		started := make([]chan struct{}, len(spans))
		for i := range started {
			started[i] = make(chan struct{})
		}
		mustRun(t, 2, func(c *msg.Comm) {
			b, err := array.New[float64](c, "v", mustBlock(g, []int{1, 2}))
			if err != nil {
				panic(err)
			}
			ro := o
			ro.FetchPiece = func(index int, offset int64, dst []byte) error {
				close(started[index])
				time.Sleep(2 * time.Millisecond)
				if index == failAt {
					return boom
				}
				return fs.ReadAt(c.Rank(), "f", dst, offset)
			}
			ro.PieceHook = func(index int, _ int64, _ []byte) {
				if next := index + c.Size(); next < len(spans) {
					select {
					case <-started[next]:
					case <-time.After(10 * time.Second):
						panic(fmt.Sprintf("piece %d is about to be exchanged and piece %d is not being fetched", index, next))
					}
				}
			}
			_, err = Read(b, g, fs, "f", ro)
			if failAt >= 0 {
				// The rank whose fetch failed reports it; its peer is stuck in
				// the round's exchange until the communicator is revoked.
				if c.Rank() == failAt%2 && !errors.Is(err, boom) {
					panic(fmt.Sprintf("failed fetch of piece %d surfaced as %v", failAt, err))
				}
				c.Revoke()
				return
			}
			if err != nil {
				panic(err)
			}
			b.Mapped().Each(rangeset.ColMajor, func(cd []int) {
				if b.At(cd) != coordVal(cd) {
					panic(fmt.Sprintf("element %v = %v", cd, b.At(cd)))
				}
			})
		})
	}
}

// TestSteadyStateBuildsNoPlans pins what the benchmark's plan counters
// mean: the second checkpoint and the second restore of a configuration
// build no stream plan and no array plan; a filtered delta write replays
// its cached sub-plan; and after an in-flight resize (new communicator
// epoch) everything is planned afresh, once.
func TestSteadyStateBuildsNoPlans(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{23, 11})
	fs := testFS()
	FlushPlans()
	array.FlushPlans()
	r, err := msg.NewRunner(3, false)
	if err != nil {
		t.Fatal(err)
	}
	// cycle runs op on every task between two counter readings taken by
	// rank 0 while the others wait: the op must build stream plans, array
	// plans, or neither, as said, and replay cached ones when it builds none.
	cycle := func(c *msg.Comm, what string, streamBuilt, arrayBuilt bool, op func()) {
		var sh0, sm0, ah0, am0 uint64
		must(c.Barrier())
		if c.Rank() == 0 {
			sh0, sm0 = PlanCacheStats()
			ah0, am0 = array.PlanCacheStats()
		}
		must(c.Barrier())
		op()
		must(c.Barrier())
		if c.Rank() == 0 {
			sh, sm := PlanCacheStats()
			ah, am := array.PlanCacheStats()
			sh, sm, ah, am = sh-sh0, sm-sm0, ah-ah0, am-am0
			if streamBuilt != (sm > 0) || arrayBuilt != (am > 0) || (!streamBuilt && sh == 0) || (!arrayBuilt && ah == 0) {
				panic(fmt.Sprintf("%s (epoch %d, %d tasks): stream hits/misses %d/%d, array %d/%d; builds expected: stream %v, array %v",
					what, c.Epoch(), c.Size(), sh, sm, ah, am, streamBuilt, arrayBuilt))
			}
		}
		must(c.Barrier())
	}
	var idle sync.WaitGroup
	idle.Add(3)
	err = r.Run(func(c *msg.Comm) error {
		for {
			grid := []int{c.Size(), 1}
			a, err := array.New[float64](c, "u", mustBlock(g, grid))
			must(err)
			a.Fill(coordVal)
			o := Options{PieceBytes: 256}
			delta := o
			delta.Pieces = []int{1, 2, 5}
			write := func(o Options) func() {
				return func() {
					_, err := Write(a, g, fs, fmt.Sprint("f", c.Epoch()), o)
					must(err)
				}
			}
			read := func() {
				_, err := Read(a, g, fs, fmt.Sprint("f", c.Epoch()), o)
				must(err)
			}
			cycle(c, "first checkpoint", true, true, write(o))
			cycle(c, "first restore", false, true, read) // the piece partition is the write's; the exchange runs the other way
			cycle(c, "first delta", true, true, write(delta))
			cycle(c, "second checkpoint", false, false, write(o))
			cycle(c, "second restore", false, false, read)
			cycle(c, "second delta", false, false, write(delta))
			if c.Epoch() > 0 {
				return nil
			}
			// Resize retires the epoch's transport: every rank must be out
			// of its last collective first, which only a signal outside the
			// communicator can tell rank 0.
			idle.Done()
			if c.Rank() == 0 {
				idle.Wait()
				if _, err := r.Resize(2); err != nil {
					return err
				}
			}
			nc, _, err := r.Park(c)
			if errors.Is(err, msg.ErrSuperseded) {
				return nil
			}
			must(err)
			c = nc
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
