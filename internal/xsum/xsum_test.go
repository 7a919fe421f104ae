package xsum

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// exact is the reference: the terms summed in math/big at a precision
// that holds any sum of doubles exactly, rounded once by big.Float's
// Float64 (to nearest-even, subnormals included), with the specials
// decided by the package's rule.
func exact(xs []float64) float64 {
	sum := new(big.Float).SetPrec(4096)
	var pos, neg bool
	for _, x := range xs {
		switch {
		case math.IsNaN(x):
			return math.NaN()
		case math.IsInf(x, 1):
			pos = true
		case math.IsInf(x, -1):
			neg = true
		default:
			sum.Add(sum, new(big.Float).SetFloat64(x))
		}
	}
	switch {
	case pos && neg:
		return math.NaN()
	case pos:
		return math.Inf(1)
	case neg:
		return math.Inf(-1)
	}
	f, _ := sum.Float64()
	return f
}

func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func sumOf(xs []float64) *Acc {
	var a Acc
	a.AddSlice(xs)
	return &a
}

// check sums xs split at k every way the package offers, against exact.
func check(t *testing.T, xs []float64, k int) {
	t.Helper()
	want := exact(xs)
	k = min(k, len(xs))
	var each Acc
	for _, x := range xs {
		each.Add(x)
	}
	a, b := sumOf(xs[:k]).AppendBinary(nil), sumOf(xs[k:]).AppendBinary(nil)
	ab, err := Decode(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Decode(b, a)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*Acc{"one slice": sumOf(xs), "Add": &each, "merged a+b": &ab, "merged b+a": &ba} {
		if got := a.Float64(); !same(got, want) {
			t.Fatalf("%s, %d terms split at %d: %v (%#x), exact sum rounds to %v (%#x)",
				name, len(xs), k, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// FuzzSum reads the terms as little-endian float64 bits, so every
// exponent, sign and special is reachable.
func FuzzSum(f *testing.F) {
	seed := func(xs ...float64) {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		f.Add(b, uint(len(xs)/2))
	}
	seed(1, 1e100, 1, -1e100)
	seed(math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64)
	seed(5e-324, -1e-310, 2.2250738585072014e-308, 0.1, 0.2, 0.3)
	seed(1, 0x1p-53, 0x1p-1074)
	seed(math.Inf(1), 3, math.Inf(-1))
	f.Fuzz(func(t *testing.T, data []byte, split uint) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		check(t, xs, int(split%uint(len(xs)+1)))
	})
}

func TestSpecials(t *testing.T) {
	inf, top, tiny := math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64
	for _, c := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"NaN", []float64{1, math.NaN(), 2}, math.NaN()},
		{"NaN beside an infinity", []float64{inf, math.NaN()}, math.NaN()},
		{"+Inf", []float64{1, inf, -1e308}, inf},
		{"-Inf", []float64{-inf, 5}, -inf},
		{"both infinities", []float64{inf, 1, -inf}, math.NaN()},
		{"overflow", []float64{top, top}, inf},
		{"negative overflow", []float64{-top, -top / 2}, -inf},
		{"overflow undone", []float64{top, top, -top}, top},
		{"half an ulp past the largest double ties to 2^1024", []float64{top, 0x1p970}, inf},
		{"less than half stays", []float64{top, 0x1p969}, top},
		{"subnormals only", []float64{tiny, tiny, 3 * tiny}, 5 * tiny},
		{"subnormals into normal", []float64{0x1p-1022 - tiny, tiny}, 0x1p-1022},
		{"subnormal result", []float64{0x1p-1022, -tiny}, 0x1p-1022 - tiny},
		{"exact cancellation", []float64{0.1, -0.1}, 0},
		{"cancellation keeps the small term", []float64{1e300, 1, -1e300}, 1},
		{"negative zeros", []float64{math.Copysign(0, -1), math.Copysign(0, -1)}, 0},
		{"tie to even, down", []float64{1, 0x1p-53}, 1},
		{"tie to even, up", []float64{1 + 0x1p-52, 0x1p-53}, 1 + 0x1p-51},
		{"sticky past the tie", []float64{1, 0x1p-53, tiny}, 1 + 0x1p-52},
		{"negative tie", []float64{-1 - 0x1p-52, -0x1p-53}, -1 - 0x1p-51},
	} {
		if got := sumOf(c.xs).Float64(); !same(got, c.want) {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
		if !same(exact(c.xs), c.want) { // the table and the reference agree
			t.Errorf("%s: math/big says %v, the table %v", c.name, exact(c.xs), c.want)
		}
		check(t, c.xs, 1)
	}
}

// TestEveryExponent makes each bucket's fold visible: a term of every
// exponent and sign survives beside a pair that cancels, twice, so the sum
// is that term doubled and nothing larger hides it.
func TestEveryExponent(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for e := uint64(0); e < expInf; e++ {
		for _, s := range []uint64{0, 1 << 63} {
			y := math.Float64frombits(s | e<<52 | rng.Uint64()&(1<<52-1))
			check(t, []float64{1e300, y, -1e300, y}, 2)
		}
	}
}

// TestLongSums crosses many folds, inside one AddSlice and between calls
// of every length, on terms that fill the buckets fastest (the largest
// significand at one exponent), that span every exponent, and that cancel.
func TestLongSums(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	full := make([]float64, 5000)
	for i := range full {
		full[i] = 2 - 0x1p-52
	}
	spread := make([]float64, 20000)
	for i := range spread {
		spread[i] = math.Float64frombits(rng.Uint64()&^(0x7FF<<52) | uint64(rng.Intn(expInf))<<52)
	}
	cancel := append(append([]float64(nil), spread...), spread...)
	for i := range spread {
		cancel[len(spread)+i] = -cancel[len(spread)+i]
	}
	rng.Shuffle(len(cancel), func(i, j int) { cancel[i], cancel[j] = cancel[j], cancel[i] })
	for _, xs := range [][]float64{full, spread, cancel} {
		check(t, xs, len(xs)/3)
		var a Acc
		for rest := xs; len(rest) > 0; {
			n := min(len(rest), 1+rng.Intn(3000))
			a.AddSlice(rest[:n])
			rest = rest[n:]
		}
		if got, want := a.Float64(), exact(xs); !same(got, want) {
			t.Fatalf("%d terms in random slices: %v, want %v", len(xs), got, want)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	frame := sumOf([]float64{1}).AppendBinary(nil)
	if len(frame) != FrameSize {
		t.Fatalf("frame of %d bytes, FrameSize %d", len(frame), FrameSize)
	}
	for _, bad := range [][]byte{nil, frame[1:], append(frame, 0), append([]byte{8}, frame[1:]...)} {
		if _, err := Decode(frame, bad); err == nil {
			t.Errorf("frame % x accepted", bad[:min(len(bad), 4)])
		}
	}
}

// btShaped is the BT kernel's initial solution over 5 × 24³ points:
// doubles of a handful of exponents, in long runs of equal ones.
func btShaped() []float64 {
	const n = 24
	xs := make([]float64, 0, 5*n*n*n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				fx, fy, fz := float64(x)/n, float64(y)/n, float64(z)/n
				for c := 0; c < 5; c++ {
					xs = append(xs, 1+float64(c)*0.1+fx*(1-fx)+0.5*fy*(1-fy)+0.25*fz*(1-fz))
				}
			}
		}
	}
	return xs
}

var sink float64

// BenchmarkAddSlice is the accumulator's throughput on BT-shaped doubles,
// beside the rounding float loop it replaces.
func BenchmarkAddSlice(b *testing.B) {
	xs := btShaped()
	b.Run("xsum", func(b *testing.B) {
		b.SetBytes(int64(8 * len(xs)))
		var a Acc
		for i := 0; i < b.N; i++ {
			a.AddSlice(xs)
		}
		sink = a.Float64()
	})
	b.Run("float", func(b *testing.B) {
		b.SetBytes(int64(8 * len(xs)))
		var s float64
		for i := 0; i < b.N; i++ {
			for _, x := range xs {
				s += x
			}
		}
		sink = s
	})
}
