package ckpt

import "encoding/binary"

// A piece table of fixed-width records: the violation.
func WriteDRMSChained(a ArrayRef, locs []PieceLoc) ([]byte, error) {
	_, err := a.StreamWrite(nil, "ck.arr.u", opts)
	var b []byte
	for _, l := range locs {
		b = binary.LittleEndian.AppendUint64(b, uint64(l.FileOff))
	}
	return b, err
}
