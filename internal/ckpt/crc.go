package ckpt

import "hash/crc64"

// Checkpoint integrity: every array file and segment file carries a
// CRC-64/ECMA of its full contents in the metadata, computed *during* the
// checkpoint without re-reading anything. Parallel streaming writes the
// pieces of one file from many tasks concurrently, so per-piece CRCs are
// gathered and combined. A CRC register is a polynomial over GF(2)
// reduced modulo the CRC polynomial P, and appending n zero bytes
// multiplies it by x^(8n), so crc(A||B) = crc(A)·x^(8·len B) mod P xor
// crc(B): a table of x^(2^k) mod P and one 64-step multiply per set bit
// of the length, as zlib's crc32_combine does since 1.2.12 (crc_test.go
// keeps the GF(2) matrix method this replaced as the reference). Rank 0
// combines once per piece per array at every commit while the other
// ranks wait. Verify re-reads files sequentially and compares.

var crcTable = crc64.MakeTable(crc64.ECMA)

// crcOf returns the CRC-64/ECMA of data.
func crcOf(data []byte) uint64 { return crc64.Checksum(data, crcTable) }

// crcPoly is the CRC-64/ECMA polynomial in the reflected bit order
// hash/crc64 computes in: bit 63 is the coefficient of x^0.
const crcPoly = 0xC96C5795D7870F42

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
			b = b>>1 ^ crcPoly
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

// xPow8n returns x^(8n) mod P.
func xPow8n(n int64) uint64 {
	p := uint64(1) << 63 // x^0
	for k := 3; n > 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = multModP(x2n[k], p)
		}
	}
	return p
}

// crcCombine returns the CRC of the concatenation of two byte sequences
// given their individual CRCs and the length of the second.
func crcCombine(crc1, crc2 uint64, len2 int64) uint64 {
	if len2 <= 0 {
		return crc1
	}
	return multModP(xPow8n(len2), crc1) ^ crc2
}

// crcZeros returns the CRC of n zero bytes in O(log n): the register
// starts at all ones, n zero bytes multiply it by x^(8n), and the result
// is inverted again (that pre/post inversion is why runs of zeros
// contribute non-trivially).
func crcZeros(n int64) uint64 {
	return ^multModP(xPow8n(n), ^uint64(0))
}
