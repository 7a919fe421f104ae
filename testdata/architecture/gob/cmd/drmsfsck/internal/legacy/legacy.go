package legacy

// The readers of gob-era records.
import _ "encoding/gob"
