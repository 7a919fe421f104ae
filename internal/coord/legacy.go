package coord

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// decodeGobRecord decodes a record an earlier coordinator wrote into r:
// a gob encoding of the record's struct with a Schema field, 1 in every
// such record. A store ckpt.StateStore.Upgrade rewrote from a gob image
// holds these until RecoverRC's first commit writes every record as a
// frame.
func decodeGobRecord(b []byte, r record) error {
	var schema struct{ Schema int }
	for _, dst := range []any{&schema, r} {
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(dst); err != nil {
			return fmt.Errorf("coord: corrupt state record: %w", err)
		}
	}
	if schema.Schema > 1 {
		return fmt.Errorf("coord: state record schema %d newer than this coordinator (1)", schema.Schema)
	}
	return nil
}
