//go:build !amd64

package crc

func hasCLMUL() bool { return false }

func foldCLMUL(uint64, []byte, *[4]uint64, *[16]byte) { panic("crc: no carry-less multiply kernel") }
