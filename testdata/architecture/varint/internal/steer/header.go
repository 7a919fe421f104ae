package steer

import "encoding/binary"

// Fixed-width integers are not varints.
func header(b []byte, n uint64) []byte { return binary.LittleEndian.AppendUint64(b, n) }
