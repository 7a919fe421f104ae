package seg

import (
	"bytes"
	"encoding/gob"
)

// The segment's own header in gob: the violation. Its bytes would depend
// on what the process gob-encoded first.
func encodeWire(w any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(w)
	return buf.Bytes(), err
}
