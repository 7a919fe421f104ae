package coord

// A coordinator record, in gob: the violation.
import _ "encoding/gob"
