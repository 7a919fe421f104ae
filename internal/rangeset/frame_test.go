package rangeset_test

import (
	"drms/internal/frame"
	"drms/internal/rangeset"
)

func init() {
	rangeset.EncodeAxis = func(r rangeset.Range) []byte {
		return frame.Encode(func(c *frame.Codec) { c.Axis(&r) })
	}
}
