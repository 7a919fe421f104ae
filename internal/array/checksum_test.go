package array

import (
	"fmt"
	"math"
	"math/big"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
	"drms/internal/xsum"
)

// Checksum is held to the gathered array: Gather collects every assigned
// element at rank 0 (unassigned ones read as zero), math/big adds them
// without rounding, and big.Float rounds the total once, to nearest-even.

// exactSum is that oracle.
func exactSum[T Elem](full []T) float64 {
	sum := new(big.Float).SetPrec(4096)
	for _, v := range full {
		sum.Add(sum, new(big.Float).SetFloat64(float64(v)))
	}
	f, _ := sum.Float64()
	return f
}

// hashed returns a finite double drawn from the coordinate: any sign,
// biased exponent 0–2046 reduced to width+1 values around 1023 (all of
// them at width 2046), any fraction.
func hashed(width int) func(c []int) float64 {
	return func(c []int) float64 {
		h := uint64(0x9E3779B97F4A7C15)
		for _, x := range c {
			h = (h ^ uint64(x)) * 0xBF58476D1CE4E5B9
			h ^= h >> 31
		}
		e := uint64(1023 - width/2 + int(h>>20%uint64(width+1)))
		return math.Float64frombits(h&(1<<63|(1<<52-1)) | e<<52)
	}
}

// checkExact runs Checksum on every rank for an array of d filled by f and
// compares each rank's result with the oracle, bit for bit.
func checkExact[T Elem](t *testing.T, what string, d *dist.Distribution, f func([]int) T) {
	t.Helper()
	got := make([]float64, d.Tasks())
	var want float64
	mustRun(t, d.Tasks(), func(c *msg.Comm) {
		a, err := New[T](c, "u", d)
		if err != nil {
			panic(err)
		}
		a.Fill(f)
		full, err := a.Gather(0, rangeset.ColMajor)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			want = exactSum(full)
		}
		if got[c.Rank()], err = a.Checksum(); err != nil {
			panic(err)
		}
	})
	for r, s := range got {
		if math.Float64bits(s) != math.Float64bits(want) {
			t.Fatalf("%s: rank %d checksum %v (%#x), exact sum of the gathered array %v (%#x)",
				what, r, s, math.Float64bits(s), want, math.Float64bits(want))
		}
	}
}

// TestChecksumIsExactSumOfGather covers the distributions the piece
// exchange's decoder draws (block, block-cyclic, irregular, shadowed,
// holes, empty ranks) and the paper-shape cases, with doubles of every
// exponent and both signs, doubles of a band of exponents wide enough that
// every term counts and rounding is needed, and the int32 conversion path.
func TestChecksumIsExactSumOfGather(t *testing.T) {
	full, band := hashed(2046), hashed(100)
	for i, seed := range pieceCaseSeeds(60) {
		pc := decodePieceCase(seed)
		for j, d := range []*dist.Distribution{pc.d, pc.d2} {
			what := fmt.Sprintf("case %d/%d (%v)", i, j, d)
			checkExact(t, what+", all exponents", d, full)
			checkExact(t, what+", a band", d, band)
			checkExact(t, what+", int32", d, mark[int32])
		}
	}
	for _, sc := range paperShapeCases(t) {
		for _, d := range []*dist.Distribution{sc.src, sc.dst} {
			checkExact(t, sc.name, d, band)
		}
	}
}

// TestChecksumDistributionIndependent: the same values on 1–8 tasks, with
// summation order mattering if it were a float loop, give the same bits,
// and those are the exactly rounded sum.
func TestChecksumDistributionIndependent(t *testing.T) {
	g := rangeset.Box([]int{0, 0, 0}, []int{7, 7, 7})
	sinVal := func(cd []int) float64 { return math.Sin(coordVal(cd)) * 1e10 }
	grids := [][]int{{1, 1, 1}, {2, 1, 1}, {1, 3, 1}, {2, 2, 1}, {1, 1, 5}, {3, 2, 1}, {7, 1, 1}, {2, 2, 2}}
	for _, grid := range grids {
		checkExact(t, fmt.Sprintf("grid %v", grid), mustBlock(t, g, grid), sinVal)
	}
}

// sendCounter counts the messages and the largest payload that cross a
// transport.
type sendCounter struct {
	msg.Transport
	sends, largest atomic.Int64
}

func (s *sendCounter) Send(src, dst, tag int, data []byte) error {
	s.sends.Add(1)
	for n := int64(len(data)); ; {
		if m := s.largest.Load(); n <= m || s.largest.CompareAndSwap(m, n) {
			break
		}
	}
	return s.Transport.Send(src, dst, tag, data)
}

// TestChecksumMessages pins the exchange: one Allgather of fixed-size
// accumulators — 2(P−1) messages, none over 1 KB at P = 3 — whatever the
// array's size.
func TestChecksumMessages(t *testing.T) {
	const p = 3
	for _, n := range []int{1 << 10, 1 << 16} {
		tr := &sendCounter{Transport: msg.NewLocalTransport(p)}
		d := mustBlock(t, rangeset.Box([]int{0}, []int{n - 1}), []int{p})
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				a, err := New[float64](msg.NewComm(rank, p, tr), "u", d)
				if err == nil {
					_, err = a.Checksum()
				}
				if err != nil {
					t.Error(err)
					tr.Abort(msg.ErrRevoked)
				}
			}(r)
		}
		wg.Wait()
		if s, l := tr.sends.Load(), tr.largest.Load(); s != 2*(p-1) || l > 1024 {
			t.Errorf("%d elements: %d messages, largest %d bytes; want %d, at most 1024", n, s, l, 2*(p-1))
		}
	}
}

// TestChecksumAllocsIndependentOfSize: no allocation grows with the array.
// What one call allocates over all ranks on 2^20 elements equals what it
// allocates on 2^10, within one accumulator frame (and two pending tables
// under the race detector, see below). The transport's own
// allocations depend on which rank waits for which, so each size keeps the
// least of five measurements.
func TestChecksumAllocsIndependentOfSize(t *testing.T) {
	const tasks, calls = 4, 20
	perCall := func(n int) float64 {
		d := mustBlock(t, rangeset.Box([]int{0}, []int{n - 1}), []int{tasks})
		least := math.Inf(1)
		mustRun(t, tasks, func(c *msg.Comm) {
			a, _ := New[float64](c, "u", d)
			a.Fill(coordVal)
			var before, after runtime.MemStats
			for round := 0; round < 6; round++ { // the first builds the plan
				c.Barrier()
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				c.Barrier()
				for i := 0; i < calls; i++ {
					if _, err := a.Checksum(); err != nil {
						panic(err)
					}
				}
				c.Barrier()
				if c.Rank() == 0 && round > 0 {
					runtime.ReadMemStats(&after)
					least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/calls)
				}
			}
		})
		return least
	}
	small, big := perCall(1<<10), perCall(1<<20)
	t.Logf("per call: %.0f bytes at 2^10 elements, %.0f at 2^20", small, big)
	tolerance := float64(xsum.FrameSize)
	if raceEnabled {
		// The race detector's sync.Pool drops a quarter of what it is
		// given, at random, so the least of five rounds can still differ
		// by several of xsum's 32 KiB tables; 2^20 float64s are 8 MiB.
		tolerance += 2 * 32 << 10
	}
	if math.Abs(big-small) > tolerance {
		t.Fatalf("allocation grows with the array: %.0f bytes per call at 2^20 elements, %.0f at 2^10", big, small)
	}
}

// TestChecksumBorrowsItsTable: a warm Checksum allocates no exact-sum
// table. The accumulator's 32 KiB pending table comes from xsum's pool,
// so one call on one task allocates a few small objects, well under half
// a table (three quarters under the race detector).
func TestChecksumBorrowsItsTable(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	d := mustBlock(t, rangeset.Box([]int{0}, []int{4095}), []int{1})
	mustRun(t, 1, func(c *msg.Comm) {
		a, _ := New[float64](c, "u", d)
		a.Fill(coordVal)
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := a.Checksum(); err != nil {
				panic(err)
			}
		})
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		t.Logf("warm Checksum: %.0f allocations, %d bytes per call", allocs, perCall)
		bound := uint64(16 << 10)
		if raceEnabled {
			// The race detector's sync.Pool drops a quarter of what it
			// is given, at random: a quarter of a table per call on average.
			bound = 24 << 10
		}
		if perCall >= bound {
			panic(fmt.Sprintf("a warm Checksum allocates %d bytes: the pending table is not reused", perCall))
		}
	})
}
