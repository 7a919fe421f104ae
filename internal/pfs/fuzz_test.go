package pfs

import (
	"bytes"
	"testing"
)

// FuzzLoad feeds Load arbitrary snapshot bytes: an error or a loaded
// system are the only outcomes, never a panic. A system written from the
// fuzzed bytes (a dense write and a sparse zero one) round-trips through
// Save and Load, file for file and byte for byte: up to 4 KiB of them,
// placed anywhere in the first two chunks.
func FuzzLoad(f *testing.F) {
	s := small()
	if err := s.WriteAt(0, "f", []byte("checkpoint"), 3); err != nil {
		f.Fatal(err)
	}
	if err := s.WriteAt(0, "z", make([]byte, 2*chunkSize), 0); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), uint32(5))
	f.Add(buf.Bytes()[:buf.Len()/2], uint32(chunkSize-1))
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, snap []byte, off uint32) {
		_ = NewSystem(DefaultConfig()).Load(bytes.NewReader(snap))

		s := small()
		data := snap[:min(len(snap), 4096)]
		off %= 2 * chunkSize
		if err := s.WriteAt(0, "d", data, int64(off)); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteAt(1, "z", make([]byte, len(data)), int64(off)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		r := NewSystem(DefaultConfig())
		if err := r.Load(&buf); err != nil {
			t.Fatal(err)
		}
		if r.StoredBytes() != s.StoredBytes() {
			t.Fatalf("stored bytes %d, saved %d", r.StoredBytes(), s.StoredBytes())
		}
		for _, name := range []string{"d", "z"} {
			want, got := readAll(t, s, name), readAll(t, r, name)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %d bytes differ after the round trip", name, len(want))
			}
		}
	})
}

func readAll(t *testing.T, s *System, name string) []byte {
	t.Helper()
	sz, err := s.Size(name)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, sz)
	if err := s.ReadAt(0, name, b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}
