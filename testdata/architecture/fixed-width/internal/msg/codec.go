package msg

import "encoding/binary"

// A transport's wire header is outside the checkpoint's records.
func header(b []byte, n uint32) []byte { return binary.LittleEndian.AppendUint32(b, n) }
