package wire

import "testing"

// decodeCase is a test helper: a decoder a test declares is not held.
func decodeCase(b []byte) int {
	n, _ := ParseHeader(b)
	return n
}

func FuzzHeader(f *testing.F) {
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, b []byte) { decodeCase(b) })
}

func TestBody(t *testing.T) {
	if len(decodeBody([]byte{1, 2})) != 1 {
		t.Fatal("body")
	}
}
