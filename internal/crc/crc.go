// Package crc is the repository's one CRC-64/ECMA: bit-identical to
// hash/crc64 for every input, with a carry-less-multiply bulk path on
// amd64 and the algebra that combines piece sums without re-reading.
//
// A CRC register is a polynomial over GF(2) reduced modulo the CRC
// polynomial P, and appending n zero bytes multiplies it by x^(8n), so
// crc(A||B) = crc(A)·x^(8·len B) mod P xor crc(B): a table of x^(2^k)
// mod P and one 64-step multiply per set bit of the length, as zlib's
// crc32_combine does since 1.2.12 (combine_test.go keeps the GF(2)
// matrix method this replaced as the reference).
//
// The kernel (crc_amd64.s; loop shape after Go's hash/crc32 ieeeCLMUL,
// BSD licence; method of Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ", Intel 2009) keeps four 16-byte lanes and
// moves each 64 bytes ahead per step: a lane L = lo·x^64 + hi followed
// by n more bits is congruent to lo·x^(n+64) + hi·x^n, two 64×64
// carry-less products that fit the lane again. hash/crc64 computes in
// reflected order — bit 63 of a word is x^0, so a little-endian load of
// message bytes is already a polynomial, earliest byte highest — and in
// that order PCLMULQDQ's 127-bit product lands one place low: it reads
// as a·b·x. The constants therefore carry one x less: x^(512+64−1) and
// x^(512−1) for the 64-byte step, x^(128+64−1) and x^(128−1) to fold the
// lanes together and for single 16-byte blocks, all mod P, derived in
// foldK from the same x2n table Combine uses. The last lane is only
// congruent to the message, not reduced: it goes back to the table as
// sixteen message bytes from a zero register, which is the reduction, so
// the assembly needs no Barrett step. Inputs under clmulMin bytes, hosts
// whose CPUID lacks PCLMULQDQ and other architectures run hash/crc64.
//
// Where the host has AVX-512 and VPCLMULQDQ, inputs of wideMin bytes or
// more start in a wide prologue of the same kernel: sixteen lanes in four
// ZMM registers, each step 256 bytes ahead by x^(2048+64−1) and
// x^(2048−1) broadcast to every lane, the two products and the next
// message bytes merged by one three-way XOR (VPTERNLOGQ). At the end
// the 64-byte constants fold the four registers into one, whose four
// lanes are the ones the 128-bit loop would hold at that offset, so the
// 64-byte loop and the tail after it are shared, not repeated.
package crc

import "hash/crc64"

var table = crc64.MakeTable(crc64.ECMA)

// poly is the CRC-64/ECMA polynomial in reflected order.
const poly = 0xC96C5795D7870F42

// useCLMUL and useVPCLMUL are probed once; they are capabilities of the
// host, not options.
var (
	useCLMUL   = hasCLMUL()
	useVPCLMUL = hasVPCLMUL()
)

// clmulMin is where the kernel overtakes the table, wideMin where its
// wide prologue overtakes the 128-bit loop: from 256 bytes to 511 it
// ties or trails by a nanosecond or two (BenchmarkChecksum).
const (
	clmulMin = 128
	wideMin  = 512
)

// Checksum returns the CRC-64/ECMA of p.
func Checksum(p []byte) uint64 { return Update(0, p) }

// Update extends crc over p, with crc64.Update's contract: crc is the
// finished (inverted) sum of what came before, as is the result.
func Update(crc uint64, p []byte) uint64 {
	if useCLMUL && len(p) >= clmulMin {
		return updateCLMUL(crc, p, useVPCLMUL && len(p) >= wideMin)
	}
	return crc64.Update(crc, table, p)
}

// updateCLMUL is Update through the kernel, for 64 bytes or more (wide
// from 256): the whole 16-byte blocks folded to one, that one and the
// tail by table.
func updateCLMUL(crc uint64, p []byte, wide bool) uint64 {
	var rem [16]byte
	n := len(p) &^ 15
	foldCLMUL(^crc, p[:n], &foldK, &rem, wide)
	return crc64.Update(crc64.Update(^uint64(0), table, rem[:]), table, p[n:])
}

// multModP returns a·b mod P over GF(2). a must be non-zero: every
// caller passes a power of x, which is invertible modulo P.
func multModP(a, b uint64) uint64 {
	var p uint64
	for m := uint64(1) << 63; ; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				return p
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ poly
		} else {
			b >>= 1
		}
	}
}

// x2n[k] is x^(2^k) mod P. A byte count below 2^63 scaled to bits needs
// k up to 65; nothing is assumed about the order of x modulo P.
var x2n = func() (t [66]uint64) {
	p := uint64(1) << 62 // x^1
	t[0] = p
	for k := 1; k < len(t); k++ {
		p = multModP(p, p)
		t[k] = p
	}
	return t
}()

// xPow returns x^(n·2^k) mod P.
func xPow(n int64, k int) uint64 {
	p := uint64(1) << 63 // x^0
	for ; n > 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = multModP(x2n[k], p)
		}
	}
	return p
}

// foldK holds the kernel's multipliers as PCLMULQDQ operand pairs (low
// quadword for a lane's low half): the 256-byte step, the 64-byte one,
// then the 16-byte one.
var foldK = [6]uint64{
	xPow(2048+64-1, 0), xPow(2048-1, 0),
	xPow(512+64-1, 0), xPow(512-1, 0),
	xPow(128+64-1, 0), xPow(128-1, 0),
}

// Combine returns the CRC of the concatenation of two byte sequences
// given their individual CRCs and the length of the second.
func Combine(crc1, crc2 uint64, len2 int64) uint64 {
	if len2 <= 0 {
		return crc1
	}
	return multModP(xPow(len2, 3), crc1) ^ crc2
}

// Zeros returns the CRC of n zero bytes in O(log n): the register
// starts at all ones, n zero bytes multiply it by x^(8n), and the result
// is inverted again (that pre/post inversion is why runs of zeros
// contribute non-trivially).
func Zeros(n int64) uint64 {
	return ^multModP(xPow(n, 3), ^uint64(0))
}
