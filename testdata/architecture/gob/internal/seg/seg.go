package seg

// The segment keeps gob for user variables.
import _ "encoding/gob"
