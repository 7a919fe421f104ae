package ckpt

// A record the system defines, in gob: the violation.
import _ "encoding/gob"
