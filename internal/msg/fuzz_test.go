package msg

import (
	"bytes"
	"testing"
)

// FuzzUnpackFrames feeds the broadcast frame decoder arbitrary bytes and
// a frame count: frames or an error, never a panic. The input, cut at its
// zero bytes into frames (some empty), round-trips through packFrames.
func FuzzUnpackFrames(f *testing.F) {
	f.Add(packFrames([][]byte{nil, []byte("ab"), {}, []byte("c")}), 4)
	f.Add([]byte{}, 0)
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}, 1)
	f.Fuzz(func(t *testing.T, flat []byte, want int) {
		// Callers pass a communicator size; bound it so a matching header
		// cannot ask for an absurd frame table.
		want = int(uint(want) % 1024)
		if frames, err := unpackFrames(flat, want); err == nil && len(frames) != want {
			t.Fatalf("%d frames, want %d", len(frames), want)
		}
		parts := bytes.Split(flat, []byte{0})
		got, err := unpackFrames(packFrames(parts), len(parts))
		if err != nil {
			t.Fatal(err)
		}
		for i := range parts {
			if !bytes.Equal(got[i], parts[i]) {
				t.Fatalf("frame %d = %q, packed %q", i, got[i], parts[i])
			}
		}
	})
}
