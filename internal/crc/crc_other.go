//go:build !amd64

package crc

func hasCLMUL() bool { return false }

func hasVPCLMUL() bool { return false }

func foldCLMUL(uint64, []byte, *[6]uint64, *[16]byte, bool) {
	panic("crc: no carry-less multiply kernel")
}
