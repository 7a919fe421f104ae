// Package xsum is an exact float64 accumulator: a sum of doubles held
// without rounding in fixed-size integer state and rounded once, to
// nearest-even, when read. An exact sum does not depend on the order of
// its terms, so tasks that split a set of numbers however they like and
// merge their accumulators get the bits one task summing the set would.
// The method (after Neal, "Fast exact summation using small and large
// superaccumulators", 2015) and the layout are in DESIGN.md §3c.
package xsum

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

const (
	nLimbs    = 70      // up to 2^1166 past the largest double: room for 2^64 terms
	foldSteps = 1 << 10 // two terms a step, one per table; 2^10·2^53 < 2^63
	expInf    = 0x7FF   // the biased exponent of infinities and NaNs
	digit     = 1<<32 - 1

	isNaN  = 1 // special flags: posInf<<s is the infinity of sign bit s
	posInf = 2
	negInf = 4

	// FrameSize is the length of an encoded accumulator: a flag byte and
	// the normalized limbs, little-endian.
	FrameSize = 1 + 4*nLimbs
)

// Acc is an exact sum. The zero value is an empty sum. Infinities and NaNs
// are flagged, not added: any NaN, or both infinities, make the sum NaN,
// and one infinity makes it that infinity.
type Acc struct {
	limbs   [nLimbs]int64 // normalized after every change: [0, 2^32) but the last, the sign
	special uint8
	p       *pending // allocated by the first Add
}

// pending holds the terms added since the last fold. Alternate terms go to
// two interleaved tables, so a run of equal exponents, the common case, is
// two dependency chains through memory, not one.
type pending struct {
	t      [2 * (expInf + 1)]int64 // signed significand sums by biased exponent and table
	groups uint64                  // bit g: exponents 32g to 32g+31 may be in the tables
	steps  int
}

// Add adds x.
func (a *Acc) Add(x float64) { a.AddSlice([]float64{x}) }

// AddSlice adds every element of xs.
func (a *Acc) AddSlice(xs []float64) {
	if a.p == nil {
		a.p = new(pending)
	}
	p := a.p
	for len(xs) > 0 {
		if p.steps == foldSteps {
			a.fold()
		}
		chunk := xs[:min(len(xs), 2*(foldSteps-p.steps))]
		xs = xs[len(chunk):]
		p.steps += (len(chunk) + 1) / 2
		g := addTerms(&p.t, chunk)
		if g>>(expInf>>5) != 0 { // perhaps specials, whose buckets hold garbage
			for _, x := range chunk {
				if math.IsNaN(x) {
					a.special |= isNaN
				} else if math.IsInf(x, 0) {
					a.special |= posInf << (math.Float64bits(x) >> 63)
				}
			}
			p.t[2*expInf], p.t[2*expInf+1] = 0, 0
		}
		p.groups |= g
	}
}

// addTerms is the hot loop: it adds xs into the tables, alternating, and
// returns the groups of 32 exponents it touched. A leaf, so its state
// stays in registers; each table has its own group set and the shift count
// is masked, so nothing but the buckets carries a dependency between pairs.
func addTerms(t *[2 * (expInf + 1)]int64, xs []float64) uint64 {
	var g0, g1 uint64
	i := 0
	for ; i+1 < len(xs); i += 2 {
		b0, b1 := math.Float64bits(xs[i]), math.Float64bits(xs[i+1])
		e0, e1 := int(b0>>52)&expInf, int(b1>>52)&expInf
		t[2*e0] += significand(b0, e0)
		t[2*e1+1] += significand(b1, e1)
		g0 |= 1 << (b0 >> 57 & 63) // e>>5
		g1 |= 1 << (b1 >> 57 & 63)
	}
	if i < len(xs) {
		b := math.Float64bits(xs[i])
		e := int(b>>52) & expInf
		t[2*e] += significand(b, e)
		g0 |= 1 << (b >> 57 & 63)
	}
	return g0 | g1
}

// significand returns the signed m of the double with bits b and biased
// exponent e: its fraction, with the hidden bit unless e is 0.
func significand(b uint64, e int) int64 {
	m := int64(b&(1<<52-1) | (uint64(e)+expInf)>>11<<52)
	s := int64(b) >> 63
	return (m ^ s) - s
}

// fold moves the pending buckets into the limbs.
func (a *Acc) fold() {
	p := a.p
	if p == nil {
		return
	}
	for g := p.groups; g != 0; g &= g - 1 {
		first := 2 * 32 * bits.TrailingZeros64(g)
		for k, v := range p.t[first : first+2*32] {
			if v == 0 {
				continue
			}
			p.t[first+k] = 0
			q := max((first+k)/2, 1) - 1 // a significand of this exponent counts 2^(q−1074)
			i, sh := q>>5, uint(q&31)
			lo := int64(uint64(v)&digit) << sh // below 2^63
			hi := v >> 32 << sh                // signed, below 2^62 in magnitude
			a.limbs[i] += lo & digit
			a.limbs[i+1] += lo>>32 + hi&digit
			a.limbs[i+2] += hi >> 32
		}
	}
	p.groups, p.steps = 0, 0
	a.normalize()
}

// normalize carries every limb but the last into [0, 2^32).
func (a *Acc) normalize() {
	var c int64
	for i := range a.limbs[:nLimbs-1] {
		v := a.limbs[i] + c
		a.limbs[i], c = v&digit, v>>32
	}
	a.limbs[nLimbs-1] += c
}

// AppendBinary appends a's FrameSize-byte frame to buf.
func (a *Acc) AppendBinary(buf []byte) []byte {
	a.fold()
	buf = append(buf, a.special)
	for _, v := range a.limbs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// Decode returns the sum of the accumulators the frames from AppendBinary
// hold.
func Decode(frames ...[]byte) (Acc, error) {
	var a Acc
	for _, f := range frames {
		if len(f) != FrameSize || f[0]&^(isNaN|posInf|negInf) != 0 {
			return Acc{}, fmt.Errorf("xsum: malformed frame of %d bytes", len(f))
		}
		a.special |= f[0]
		for i := range a.limbs {
			a.limbs[i] += int64(binary.LittleEndian.Uint32(f[1+4*i:]))
		}
		a.limbs[nLimbs-1] -= int64(f[FrameSize-1]>>7) << 32 // the last limb is signed
		a.normalize()
	}
	return a, nil
}

// Float64 returns the sum rounded to the nearest double, ties to even,
// subnormals included (big.Float's rounding, applied once to the exact
// count of 2^−1074). A finite sum beyond the float64 range is ±Inf, an
// exact zero +0.
func (a *Acc) Float64() float64 {
	switch a.special {
	case 0:
	case posInf, negInf:
		return math.Inf(2 - int(a.special)) // +Inf for posInf, -Inf for negInf
	default:
		return math.NaN()
	}
	a.fold()
	var n, limb big.Int
	for i := nLimbs - 1; i >= 0; i-- {
		n.Add(n.Lsh(&n, 32), limb.SetInt64(a.limbs[i]))
	}
	f, _ := new(big.Float).SetMantExp(new(big.Float).SetInt(&n), -1074).Float64()
	return f
}
