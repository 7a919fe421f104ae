package frame

import (
	"math"
	"strings"
	"testing"

	"drms/internal/rangeset"
)

// rec is a record of every primitive, for the codec's own tests.
type rec struct {
	n     int64
	u     uint64
	a, b  bool
	s     string
	raw   []byte
	list  []int
	slice rangeset.Slice
}

func (r *rec) walk(c *Codec) {
	c.Head("REC", 2)
	Varint(c, &r.n)
	c.Uvarint(&r.u)
	c.Flags(&r.a, &r.b)
	c.Str(&r.s)
	c.Bytes(&r.raw)
	List(c, &r.list, func(v *int) { Varint(c, v) })
	c.Slice(&r.slice)
}

// TestDecodeAcceptsOnlyTheEncoding: a record round-trips, and every
// other spelling of it — another magic or version, a flag bit no field
// owns, a padded varint, a count past the bytes left, a trailing byte, a
// truncation — is refused with the reason.
func TestDecodeAcceptsOnlyTheEncoding(t *testing.T) {
	want := rec{n: -5, u: 300, b: true, s: "gen", raw: []byte{0, 1}, list: []int{3, -1},
		slice: rangeset.NewSlice(rangeset.Reg(0, 9, 3), rangeset.List(1, 4))}
	b := Encode(want.walk)
	var got rec
	if err := Decode(b, got.walk); err != nil || string(Encode(got.walk)) != string(b) {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	if got.n != -5 || got.u != 300 || got.a || !got.b || got.s != "gen" || !got.slice.Equal(want.slice) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	at := len("REC") + 1 + 1 + 2  // header, n, u: the flags byte
	rl := at + 1 + 1 + len("gen") // the flags, s: raw's length
	for _, c := range []struct {
		name, bytes, err string
	}{
		{"magic", "RED" + string(b[3:]), `not a "REC" record`},
		{"version", "REC\x03" + string(b[4:]), "version 3 unsupported"},
		{"flags", string(b[:at]) + "\x04" + string(b[at+1:]), "set a bit past the 2 defined"},
		{"padded", string(b[:at]) + "\x82\x00" + string(b[at+1:]), "malformed varint"},
		{"length", string(b[:rl]) + "\x7f" + string(b[rl+1:]), "length 127 exceeds"},
		{"trailing", string(b) + "\x00", "past the frame's last entry"},
		{"truncated", string(b[:len(b)-1]), "malformed varint"},
	} {
		var r rec
		if err := Decode([]byte(c.bytes), r.walk); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: %v, want %q", c.name, err, c.err)
		}
	}
}

// TestVarintRefusesWhatItsFieldCannotHold: 256 read into a uint8 field
// fails rather than wrap, so a frame read without Decode keeps one
// spelling too.
func TestVarintRefusesWhatItsFieldCannotHold(t *testing.T) {
	b := Encode(func(c *Codec) { n := 256; Varint(c, &n) })
	var v uint8
	c := &Codec{Dec: true, B: b}
	if Varint(c, &v); c.Err == nil || !strings.Contains(c.Err.Error(), "out of range") {
		t.Fatalf("read %d, %v", v, c.Err)
	}
}

// TestAxisRefusesAnOverflowingList: two indices further apart than an int
// holds would be a negative step to rangeset.List, which panics; a read
// refuses them.
func TestAxisRefusesAnOverflowingList(t *testing.T) {
	b := Encode(func(c *Codec) {
		idx := []int{math.MinInt64/2 - 10, math.MaxInt64/2 + 10}
		List(c, &idx, func(v *int) { Varint(c, v) })
	})
	var r rangeset.Range
	if err := Decode(b, func(c *Codec) { c.Axis(&r) }); err == nil || !strings.Contains(err.Error(), "not strictly increasing") {
		t.Fatalf("decoded %v, %v", r, err)
	}
}
