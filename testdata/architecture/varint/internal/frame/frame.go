package frame

import "encoding/binary"

// The one codec of every record.
func (w *Writer) Uint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
