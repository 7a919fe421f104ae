package crc

// hasCLMUL reports CPUID.1:ECX bit 1, PCLMULQDQ.
func hasCLMUL() bool

// foldCLMUL folds p — at least 64 bytes, a multiple of 16 — with the raw
// register reg XORed into its first quadword down to the 16 bytes rem,
// congruent modulo P to what went in.
//
//go:noescape
func foldCLMUL(reg uint64, p []byte, k *[4]uint64, rem *[16]byte)
