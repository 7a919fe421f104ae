package seg

import (
	"bytes"
	"encoding/gob"
)

// Segment.Encode and Decode gob-encode a user variable's value alone: it
// is an application type.
func (s *Segment) Encode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(s.value)
	return buf.Bytes(), err
}
