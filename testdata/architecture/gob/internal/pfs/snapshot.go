package pfs

// The pfs snapshot is gob until it leaves the product.
import _ "encoding/gob"
