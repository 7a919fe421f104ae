package legacy

import (
	"encoding/binary"
	"slices"

	"drms/internal/ckpt"
	"drms/internal/frame"
	"drms/internal/stream"
)

// Metadata version 3 is version 4's frame but for its piece tables: each
// array's one fixed-width frame behind its length (v3Table).
const (
	v3Head = "DRMSmeta\x03"
	// The fixed-width little-endian records of a location and of a
	// contribution fingerprint.
	v3LocBytes = 4 + 8 + 8 + 8 + 4 + 4 + 8 + 8 + 8 + 1 + 1
	v3SumBytes = 4 + 4 + 8 + 8
)

// decodeV3 decodes a version 3 record, accepting only the encoding of
// what it decodes to.
func decodeV3(b []byte) (ckpt.Meta, error) {
	m := ckpt.Meta{Version: 3}
	err := frame.Decode(b, func(c *frame.Codec) { walkV3(c, &m) })
	return m, err
}

// walkV3 is version 3's walk over a Meta.
func walkV3(c *frame.Codec, m *ckpt.Meta) {
	c.Head("DRMSmeta", 3)
	c.Str((*string)(&m.Mode))
	frame.Varint(c, &m.Tasks)
	c.Str(&m.Ctx.SOP)
	frame.Varint(c, &m.Ctx.Step)
	frame.Varint(c, &m.Ctx.Tasks)
	frame.List(c, &m.Arrays, func(a *ckpt.ArrayMeta) {
		c.Str(&a.Name)
		c.Str(&a.Kind)
		c.Slice(&a.Global)
		frame.Varint(c, &a.Bytes)
	})
	frame.List(c, &m.SegBytes, func(v *int64) { frame.Varint(c, v) })
	frame.List(c, &m.SegCRC, c.Uvarint)
	frame.Varint(c, &m.SegWhere)
	frame.List(c, &m.ArrayCRC, c.Uvarint)
	frame.List(c, &m.PlanSigs, c.Str)
	frame.Varint(c, &m.ChainLen)
	frame.List(c, &m.Deps, func(v *int) { frame.Varint(c, v) })
	frame.List(c, &m.PieceLocs, func(l *[]ckpt.PieceLoc) { v3Table(c, l, new([]stream.SectionSum)) })
	frame.List(c, &m.Sections, func(s *[]stream.SectionSum) { v3Table(c, new([]ckpt.PieceLoc), s) })
}

// v3Table is one array's piece table behind its length: a little-endian
// uint32 location count, the location records, then the fingerprint
// records. A read refuses a table that is short or not whole records.
func v3Table(c *frame.Codec, locs *[]ckpt.PieceLoc, sums *[]stream.SectionSum) {
	le := binary.LittleEndian
	var f []byte
	if !c.Dec {
		f = le.AppendUint32(nil, uint32(len(*locs)))
		for _, l := range *locs {
			f = le.AppendUint32(f, uint32(l.Index))
			f = le.AppendUint64(f, uint64(l.Off))
			f = le.AppendUint64(f, l.CRC)
			f = le.AppendUint64(f, uint64(l.Bytes))
			f = le.AppendUint32(f, uint32(int32(l.Gen)))
			f = le.AppendUint32(f, uint32(l.Task))
			f = le.AppendUint64(f, uint64(l.FileOff))
			f = le.AppendUint64(f, uint64(l.FileBytes))
			f = le.AppendUint64(f, l.StoredCRC)
			f = append(f, l.Codec, l.Where)
		}
		for _, s := range *sums {
			f = le.AppendUint32(f, uint32(s.Piece))
			f = le.AppendUint32(f, uint32(s.Task))
			f = le.AppendUint64(f, uint64(s.Bytes))
			f = le.AppendUint64(f, s.CRC)
		}
	}
	if c.Bytes(&f); !c.Dec || c.Err != nil {
		return
	}
	if len(f) < 4 {
		c.Fail("a %d-byte piece table has no count", len(f))
		return
	}
	nl, f := int64(le.Uint32(f)), f[4:]
	if nl*v3LocBytes > int64(len(f)) || (int64(len(f))-nl*v3LocBytes)%v3SumBytes != 0 {
		c.Fail("ragged piece table (%d locations announced, %d record bytes)", nl, len(f))
		return
	}
	ns := (int64(len(f)) - nl*v3LocBytes) / v3SumBytes
	*locs, *sums = slices.Grow[[]ckpt.PieceLoc](nil, int(nl)), slices.Grow[[]stream.SectionSum](nil, int(ns))
	for ; nl > 0; nl, f = nl-1, f[v3LocBytes:] {
		*locs = append(*locs, ckpt.PieceLoc{
			PieceSum: ckpt.PieceSum{Index: int(le.Uint32(f[0:])), Off: int64(le.Uint64(f[4:])),
				CRC: le.Uint64(f[12:]), Bytes: int64(le.Uint64(f[20:]))},
			Gen: int(int32(le.Uint32(f[28:]))), Task: int(le.Uint32(f[32:])),
			FileOff: int64(le.Uint64(f[36:])), FileBytes: int64(le.Uint64(f[44:])),
			StoredCRC: le.Uint64(f[52:]), Codec: f[60], Where: f[61]})
	}
	for ; ns > 0; ns, f = ns-1, f[v3SumBytes:] {
		*sums = append(*sums, stream.SectionSum{Piece: int(le.Uint32(f[0:])), Task: int(le.Uint32(f[4:])),
			Bytes: int64(le.Uint64(f[8:])), CRC: le.Uint64(f[16:])})
	}
}
