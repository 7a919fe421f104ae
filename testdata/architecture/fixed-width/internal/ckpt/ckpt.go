package ckpt

import "encoding/binary"

// The segment file's length header is a file layout, not a record. The
// one restore engine reads the streams.
func restoreDRMS(a ArrayRef, hdr []byte) (int64, error) {
	_, err := a.StreamRead(nil, "ck.arr.u", opts)
	return int64(binary.LittleEndian.Uint64(hdr)), err
}
