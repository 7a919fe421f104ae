package ckpt

// A test may use gob.
import _ "encoding/gob"
