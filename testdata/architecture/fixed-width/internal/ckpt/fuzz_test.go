package ckpt

import "encoding/binary"

// A test may build a segment file's header by hand.
func header(n uint64) []byte { return binary.LittleEndian.AppendUint64(nil, n) }
