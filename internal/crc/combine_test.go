package crc

import (
	"fmt"
	"hash/crc64"
	"math/rand"
	"testing"
)

// The zlib GF(2) matrix crc32_combine, ported to the reflected
// CRC-64/ECMA: what Combine was before it became a multiply modulo P,
// kept as its reference. It rebuilds and squares 64x64 bit operators on
// every call.

// gf2MatrixTimes multiplies the GF(2) 64x64 matrix m by vector v.
func gf2MatrixTimes(m *[64]uint64, v uint64) uint64 {
	var sum uint64
	for i := 0; v != 0; i, v = i+1, v>>1 {
		if v&1 != 0 {
			sum ^= m[i]
		}
	}
	return sum
}

// gf2MatrixSquare sets sq to m·m.
func gf2MatrixSquare(sq, m *[64]uint64) {
	for i := 0; i < 64; i++ {
		sq[i] = gf2MatrixTimes(m, m[i])
	}
}

func combineMatrix(crc1, crc2 uint64, len2 int64) uint64 {
	if len2 <= 0 {
		return crc1
	}
	var even, odd [64]uint64

	// odd = the operator for one zero bit: shift with polynomial feedback
	// (reflected form).
	odd[0] = poly
	row := uint64(1)
	for n := 1; n < 64; n++ {
		odd[n] = row
		row <<= 1
	}
	// even = operator for two zero bits; odd = for four.
	gf2MatrixSquare(&even, &odd)
	gf2MatrixSquare(&odd, &even)

	// Apply len2 zero *bytes*: square-and-multiply over the bit count.
	for {
		gf2MatrixSquare(&even, &odd)
		if len2&1 != 0 {
			crc1 = gf2MatrixTimes(&even, crc1)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
		gf2MatrixSquare(&odd, &even)
		if len2&1 != 0 {
			crc1 = gf2MatrixTimes(&odd, crc1)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
	}
	return crc1 ^ crc2
}

// zerosMatrix is the binary decomposition Zeros used over the
// matrix combine.
func zerosMatrix(n int64) uint64 {
	var acc uint64
	blockCRC := Checksum([]byte{0})
	blockLen := int64(1)
	for n > 0 {
		if n&1 != 0 {
			acc = combineMatrix(acc, blockCRC, blockLen)
		}
		n >>= 1
		if n > 0 {
			blockCRC = combineMatrix(blockCRC, blockCRC, blockLen)
			blockLen *= 2
		}
	}
	return acc
}

// combineLengths are 0, 1, and every 2^k and 2^k±1 up to 2^40.
func combineLengths() []int64 {
	ls := []int64{0, 1}
	for k := 1; k <= 40; k++ {
		ls = append(ls, 1<<k-1, 1<<k, 1<<k+1)
	}
	return ls
}

func TestCRCCombineMatchesMatrixReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range combineLengths() {
		pairs := [][2]uint64{{0, 0}, {^uint64(0), 0}, {0, ^uint64(0)}, {1, 1 << 63}}
		for i := 0; i < 4; i++ {
			pairs = append(pairs, [2]uint64{rng.Uint64(), rng.Uint64()})
		}
		for _, p := range pairs {
			if got, want := Combine(p[0], p[1], n), combineMatrix(p[0], p[1], n); got != want {
				t.Fatalf("Combine(%016x, %016x, %d) = %016x, matrix method %016x", p[0], p[1], n, got, want)
			}
		}
		if got, want := Zeros(n), zerosMatrix(n); got != want {
			t.Fatalf("Zeros(%d) = %016x, matrix method %016x", n, got, want)
		}
	}
	for i := 0; i < 200; i++ {
		n := rng.Int63n(1 << 40)
		c1, c2 := rng.Uint64(), rng.Uint64()
		if got, want := Combine(c1, c2, n), combineMatrix(c1, c2, n); got != want {
			t.Fatalf("Combine(%016x, %016x, %d) = %016x, matrix method %016x", c1, c2, n, got, want)
		}
	}
	if got := Combine(7, 9, -1); got != 7 {
		t.Fatalf("negative length: %016x", got)
	}
}

func TestCRCCombineMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tab := crc64.MakeTable(crc64.ECMA)
	for i := 0; i < 200; i++ {
		a := make([]byte, rng.Intn(5000))
		b := make([]byte, rng.Intn(5000))
		if i%10 == 0 {
			b = make([]byte, 1<<(i/10)+i%3-1) // 2^k and 2^k±1 up to 2^19
		}
		rng.Read(a)
		rng.Read(b)
		direct := crc64.Checksum(append(append([]byte{}, a...), b...), tab)
		combined := Combine(crc64.Checksum(a, tab), crc64.Checksum(b, tab), int64(len(b)))
		if combined != direct {
			t.Fatalf("iter %d (|a|=%d |b|=%d): combined %016x != direct %016x",
				i, len(a), len(b), combined, direct)
		}
	}
}

func TestCRCCombineEdgeCases(t *testing.T) {
	tab := crc64.MakeTable(crc64.ECMA)
	a := []byte("hello")
	ca := crc64.Checksum(a, tab)
	// Appending nothing changes nothing.
	if got := Combine(ca, 0, 0); got != ca {
		t.Fatalf("append empty: %016x != %016x", got, ca)
	}
	// Prepending nothing: combine from the empty CRC.
	if got := Combine(0, ca, int64(len(a))); got != ca {
		t.Fatalf("prepend empty: %016x != %016x", got, ca)
	}
}

func TestCRCZeros(t *testing.T) {
	tab := crc64.MakeTable(crc64.ECMA)
	for _, n := range []int64{0, 1, 2, 7, 64, 257, 4096, 32<<10 + 1, 1 << 20} {
		direct := crc64.Checksum(make([]byte, n), tab)
		if got := Zeros(n); got != direct {
			t.Fatalf("Zeros(%d) = %016x, want %016x", n, got, direct)
		}
	}
}

var sinkCRC uint64

// BenchmarkCRCCombine measures one combine at a piece-sized and a
// window-sized second length, against the matrix reference; `make test`
// runs it once.
func BenchmarkCRCCombine(b *testing.B) {
	for _, n := range []int64{32 << 10, 1 << 20} {
		for _, m := range []struct {
			name string
			f    func(uint64, uint64, int64) uint64
		}{{"multmodp", Combine}, {"matrix", combineMatrix}} {
			b.Run(fmt.Sprintf("%s/len=%d", m.name, n), func(b *testing.B) {
				for b.Loop() {
					sinkCRC = m.f(0x0123456789abcdef, sinkCRC, n)
				}
			})
		}
	}
}
