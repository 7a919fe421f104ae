package drms

import "testing"

// FuzzDecodeGenHeader feeds the per-SOP header decoder arbitrary bytes: a
// header or an error are the only outcomes, never a panic, and a decoded
// header re-encodes to a frame that decodes to it. A header built from
// the fuzzed fields — the enabling SOP's arm verdict (Skip) among its
// flags — round-trips through encode.
func FuzzDecodeGenHeader(f *testing.F) {
	f.Add(genHeader{Gen: "ck.g7", Prev: "ck.g6", Delta: true, Resize: -1}.encode(), "ck.g1", "", byte(hdrMem|hdrStop), 3)
	f.Add([]byte{}, "", "", byte(0), 0)
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "a", "b", byte(0xff), 1<<40)
	f.Add(genHeader{Stop: true, Skip: true}.encode(), "", "", byte(hdrSkip), 0)
	f.Fuzz(func(t *testing.T, b []byte, gen, prev string, flags byte, resize int) {
		if h, err := decodeGenHeader(b); err == nil {
			if got, err := decodeGenHeader(h.encode()); err != nil || got != h {
				t.Fatalf("decode(encode(%+v)) = %+v, %v", h, got, err)
			}
		}
		h := genHeader{Gen: gen, Prev: prev, Delta: flags&hdrDelta != 0, Mem: flags&hdrMem != 0,
			Stop: flags&hdrStop != 0, Skip: flags&hdrSkip != 0, Resize: resize}
		if got, err := decodeGenHeader(h.encode()); err != nil || got != h {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", h, got, err)
		}
	})
}
