// Package frame is the one byte codec of every record the system defines
// (DESIGN.md §3g): a record is one walk over its fields that encodes, or
// decodes them in the same order, so its bytes are a function of its
// value alone.
package frame

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"drms/internal/rangeset"
)

// Codec appends fields to B, or with Dec reads them from B: one walk
// encodes and decodes. A failed read sets Err and empties B.
type Codec struct {
	Dec bool
	B   []byte
	Err error
}

// Encode returns what walk appends.
func Encode(walk func(*Codec)) []byte {
	c := &Codec{}
	walk(c)
	return c.B
}

// Decode reads b with walk, and accepts it only as the encoding of what
// it decodes to: each value has one spelling.
func Decode(b []byte, walk func(*Codec)) error {
	c := &Codec{Dec: true, B: b}
	walk(c)
	if _, err := c.End(); err != nil {
		return err
	}
	e := &Codec{B: make([]byte, 0, len(b))}
	if walk(e); !bytes.Equal(e.B, b) {
		return errors.New("not the encoding of what it decodes to")
	}
	return nil
}

// Fail records the first error and stops the read.
func (c *Codec) Fail(format string, args ...any) {
	c.Err = cmp.Or(c.Err, fmt.Errorf(format, args...))
	c.B = nil
}

// Head is a record's magic and version: a read refuses another magic or
// version.
func (c *Codec) Head(magic string, version uint64) {
	if !c.Dec {
		c.B = append(c.B, magic...)
	} else if rest, ok := bytes.CutPrefix(c.B, []byte(magic)); !ok {
		c.Fail("not a %q record", magic)
	} else {
		c.B = rest
	}
	v := version
	if c.Uvarint(&v); v != version && c.Err == nil {
		c.Fail("%q version %d unsupported", magic, v)
	}
}

// Uvarint is binary.AppendUvarint's encoding.
func (c *Codec) Uvarint(v *uint64) {
	if !c.Dec {
		c.B = binary.AppendUvarint(c.B, *v)
	} else if x, n := binary.Uvarint(c.B); n <= 0 {
		c.Fail("malformed varint")
	} else {
		*v, c.B = x, c.B[n:]
	}
}

// Varint is a zigzag varint, binary.AppendVarint's.
func Varint[T ~int | ~int64 | ~uint8](c *Codec, v *T) {
	u := uint64(*v)<<1 ^ uint64(int64(*v)>>63)
	if c.Uvarint(&u); c.Dec {
		*v = T(int64(u>>1) ^ -int64(u&1))
	}
}

// Flags packs the booleans into one uvarint, the first the lowest bit; a
// read refuses a bit no flag owns.
func (c *Codec) Flags(fs ...*bool) {
	var u uint64
	for i, f := range fs {
		if *f {
			u |= 1 << i
		}
	}
	if c.Uvarint(&u); c.Dec && u>>len(fs) != 0 {
		c.Fail("flags %#x set a bit past the %d defined", u, len(fs))
	}
	for i, f := range fs {
		*f = u&(1<<i) != 0
	}
}

// Bytes is a uvarint length and that many bytes.
func (c *Codec) Bytes(v *[]byte) {
	n := uint64(len(*v))
	if c.Uvarint(&n); !c.Dec {
		c.B = append(c.B, *v...)
	} else if n > uint64(len(c.B)) {
		c.Fail("length %d exceeds the %d bytes left", n, len(c.B))
	} else {
		*v, c.B = c.B[:n:n], c.B[n:]
	}
}

// Str is a string as Bytes.
func (c *Codec) Str(s *string) {
	b := []byte(*s)
	if c.Bytes(&b); c.Dec {
		*s = string(b)
	}
}

// List is a uvarint count and the elements, each at least a byte: a read
// refuses a count the bytes left cannot hold, and an empty list is nil.
func List[T any](c *Codec, s *[]T, each func(*T)) {
	n := uint64(len(*s))
	if c.Uvarint(&n); c.Dec {
		if *s = nil; n > uint64(len(c.B)) {
			c.Fail("count %d exceeds the %d bytes left", n, len(c.B))
		} else if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		each(&(*s)[i])
	}
}

// End closes a frame: a read must consume every byte. It returns what an
// encoding appended, or a read's error.
func (c *Codec) End() ([]byte, error) {
	if c.Dec && len(c.B) > 0 {
		c.Fail("%d bytes past the frame's last entry", len(c.B))
	}
	return c.B, c.Err
}

// Slice is the list of s's axes.
func (c *Codec) Slice(s *rangeset.Slice) {
	axes := make([]rangeset.Range, s.Rank())
	for i := range axes {
		axes[i] = s.Axis(i)
	}
	if List(c, &axes, c.Axis); c.Dec {
		*s = rangeset.NewSlice(axes...)
	}
}

// Axis is an index list, or an empty one and a regular range's lo, hi
// and step (the empty range's 0, -1, 1). A read refuses what List or Reg
// would panic on: indices out of order, a non-positive step.
func (c *Codec) Axis(r *rangeset.Range) {
	t, idx := [3]int{0, -1, 1}, []int(nil)
	if !c.Dec && !r.IsRegular() {
		idx = r.Elements()
	} else if !c.Dec && !r.Empty() {
		t[0], t[1], t[2] = r.Bounds()
	}
	if List(c, &idx, func(v *int) { Varint(c, v) }); len(idx) == 0 {
		for i := range t {
			Varint(c, &t[i])
		}
	}
	if !c.Dec || c.Err != nil {
		return
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			c.Fail("stored indices not strictly increasing at %d", i)
			return
		}
	}
	switch lo, hi, st := t[0], t[1], t[2]; {
	case len(idx) > 0:
		*r = rangeset.List(idx...)
	case st <= 0 || hi >= lo && hi-lo < 0:
		c.Fail("stored range %d:%d:%d is not a range", lo, hi, st)
	default:
		*r = rangeset.Reg(lo, hi, st)
	}
}
