package steer

import (
	"bytes"
	"reflect"
	"testing"

	"drms/internal/frame"
	"drms/internal/rangeset"
)

// FuzzSteerHeader feeds the channel header decoder arbitrary bytes: a
// header or an error, never a panic, and an accepted header is the
// encoding of what it decoded to. A header built from the fuzzed fields
// round-trips.
func FuzzSteerHeader(f *testing.F) {
	seed := Header{Seq: 3, Section: rangeset.NewSlice(rangeset.Span(0, 7), rangeset.List(1, 4, 9)),
		Kind: "float64", Order: rangeset.RowMajor, Bytes: 192}
	f.Add(frame.Encode(seed.walk), int64(1), 5, "int32", int64(40))
	f.Add([]byte{}, int64(0), 0, "", int64(-1))
	f.Add([]byte("DRMSsteer\x01\x02\x01\x00"), int64(-7), 1, "x", int64(1)<<40)
	f.Fuzz(func(t *testing.T, b []byte, seq int64, hi int, kind string, n int64) {
		if h, err := decodeHeader(b, "ch"); err == nil && !bytes.Equal(frame.Encode(h.walk), b) {
			t.Fatalf("%x decoded to %+v, which encodes to %x", b, h, frame.Encode(h.walk))
		}
		h := Header{Seq: seq, Section: rangeset.NewSlice(rangeset.Span(0, hi)), Kind: kind, Bytes: n}
		got, err := decodeHeader(frame.Encode(h.walk), "ch")
		if err != nil || !reflect.DeepEqual(got, h) {
			t.Fatalf("%+v round-tripped to %+v, %v", h, got, err)
		}
	})
}
