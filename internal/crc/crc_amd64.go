package crc

// hasCLMUL reports CPUID.1:ECX bit 1, PCLMULQDQ.
func hasCLMUL() bool

// hasVPCLMUL reports CPUID.7:EBX bit 16 (AVX512F) and CPUID.7:ECX bit 10
// (VPCLMULQDQ) on a kernel that saves the ZMM and opmask registers
// (OSXSAVE, XCR0 & 0xE6 == 0xE6).
func hasVPCLMUL() bool

// foldCLMUL folds p — at least 64 bytes, a multiple of 16 — with the raw
// register reg XORed into its first quadword down to the 16 bytes rem,
// congruent modulo P to what went in. With wide set and 256 bytes or
// more it starts with sixteen lanes in four ZMM registers.
//
//go:noescape
func foldCLMUL(reg uint64, p []byte, k *[6]uint64, rem *[16]byte, wide bool)
