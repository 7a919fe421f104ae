package codec

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds Decode arbitrary stored bytes under any codec ID and a
// bounded logical size: it fills dst or returns an error, never panics.
// The input itself round-trips through Encode and Decode under every
// codec.
func FuzzDecode(f *testing.F) {
	enc, err := Encode(Flate, nil, bytes.Repeat([]byte("drms"), 64))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc, uint8(Flate), uint16(256))
	f.Add(enc[:len(enc)/2], uint8(Flate), uint16(256))
	f.Add([]byte("raw"), uint8(Raw), uint16(3))
	f.Add([]byte{}, uint8(7), uint16(0))
	f.Fuzz(func(t *testing.T, src []byte, id uint8, n uint16) {
		_ = Decode(ID(id), make([]byte, n), src)
		for _, c := range []ID{Raw, Flate} {
			enc, err := Encode(c, nil, src)
			if err != nil {
				t.Fatalf("%v encode: %v", c, err)
			}
			got := make([]byte, len(src))
			if err := Decode(c, got, enc); err != nil || !bytes.Equal(got, src) {
				t.Fatalf("%v round trip: %v", c, err)
			}
		}
	})
}
