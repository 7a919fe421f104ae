package legacy

import "encoding/binary"

// Version 3's fixed-width piece tables are read by the upgrader alone.
func count(f []byte) uint32 { return binary.LittleEndian.Uint32(f) }
