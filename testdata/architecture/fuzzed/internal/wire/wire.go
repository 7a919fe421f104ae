// Package wire holds the planted case of the fuzzed row.
package wire

import "errors"

// ParseHeader is reached by FuzzHeader through a test helper.
func ParseHeader(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, errors.New("wire: empty header")
	}
	return int(b[0]), nil
}

// decodeBody is the violation: no Fuzz target of the package reaches it,
// although a comment may name decodeBody and a string "decodeBody".
func decodeBody(b []byte) []byte { return b[1:] }

// Body calls decodeBody, which a test names outside a Fuzz target.
func Body(b []byte) []byte { return decodeBody(b) }
