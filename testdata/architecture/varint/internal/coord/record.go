package coord

import "encoding/binary"

// A record framed by hand: the violation.
func encode(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
