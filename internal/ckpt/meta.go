package ckpt

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"drms/internal/codec"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/stream"
)

// Metadata version 3 (DESIGN.md §3g) is one byte frame for every record,
// a function of the Meta alone. One without metaMagic is a gob record of
// version 1 or 2, which only Upgrade reads.
const (
	metaMagic   = "DRMSmeta"
	metaVersion = 3
)

// ErrLegacyFormat marks a checkpoint with gob metadata: intact, so never
// quarantined, but read only once Upgrade (drmsfsck -repair) rewrote it.
var ErrLegacyFormat = errors.New("ckpt: legacy checkpoint format (gob metadata, version 1 or 2); upgrade it once to version 3 with drmsfsck -repair")

// ReadMeta reads and decodes checkpoint metadata (e.g. to learn the task
// count before deciding a restart configuration). A record that does not
// decode, or whose tables disagree in length with the rest of it, is a
// *CorruptError: every reader indexes the tables unchecked after this.
func ReadMeta(fs *pfs.System, prefix string, client int) (Meta, error) {
	b, err := readMetaFile(fs, prefix, client)
	if err != nil {
		return Meta{}, err
	}
	return decodeMeta(b, prefix)
}

// readMetaFile returns the stored metadata record of prefix.
func readMetaFile(fs *pfs.System, prefix string, client int) ([]byte, error) {
	name := metaFile(prefix)
	sz, err := fs.Size(name)
	if err != nil {
		return nil, fmt.Errorf("ckpt: no checkpoint under prefix %q: %w", prefix, err)
	}
	buf := make([]byte, sz)
	if err := fs.ReadAt(client, name, buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// writeMeta encodes and writes the metadata file. The write goes to a
// temporary name and is renamed into place: the meta file is the commit
// record of the whole checkpoint (Exists and Rotation.Latest key on it),
// so it must appear fully written or not at all — a crash between the
// two steps leaves at worst a .tmp file no reader ever consults.
func writeMeta(fs *pfs.System, prefix string, client int, m Meta) error {
	tmp := metaFile(prefix) + ".tmp"
	fs.Create(tmp)
	if err := fs.WriteAt(client, tmp, encodeMeta(&m), 0); err != nil {
		return err
	}
	return fs.Rename(tmp, metaFile(prefix))
}

func encodeMeta(m *Meta) []byte {
	c := &metaCodec{b: append(make([]byte, 0, 512), metaMagic...)}
	c.meta(m)
	return c.b
}

// decodeMeta is ReadMeta on bytes read. A record is accepted only as the
// encoding of what it decodes to: each Meta has one spelling.
func decodeMeta(b []byte, prefix string) (Meta, error) {
	rest, ok := bytes.CutPrefix(b, []byte(metaMagic))
	if !ok {
		return Meta{}, fmt.Errorf("%w: %q", ErrLegacyFormat, prefix)
	}
	m, c := Meta{Version: metaVersion}, &metaCodec{dec: true, b: rest}
	if c.meta(&m); c.err != nil || !bytes.Equal(encodeMeta(&m), b) {
		return Meta{}, corrupt(prefix, metaFile(prefix), -1, "metadata does not decode: %v",
			cmp.Or(c.err, errors.New("not the encoding of what it decodes to")))
	}
	if bad := shapeError(&m); bad != "" {
		return Meta{}, corrupt(prefix, metaFile(prefix), -1, "metadata %s", bad)
	}
	return m, nil
}

// meta walks the record after the magic: the version, then m's fields in
// declaration order, the piece tables as encodeLocSums frames.
func (c *metaCodec) meta(m *Meta) {
	v := uint64(metaVersion)
	if c.uvarint(&v); v != metaVersion {
		c.fail("metadata version %d unsupported", v)
	}
	c.str((*string)(&m.Mode))
	varint(c, &m.Tasks)
	c.str(&m.Ctx.SOP)
	varint(c, &m.Ctx.Step)
	varint(c, &m.Ctx.Tasks)
	list(c, &m.Arrays, func(a *ArrayMeta) {
		c.str(&a.Name)
		c.str(&a.Kind)
		c.slice(&a.Global)
		varint(c, &a.Bytes)
	})
	list(c, &m.SegBytes, func(v *int64) { varint(c, v) })
	list(c, &m.SegCRC, c.uvarint)
	varint(c, &m.SegWhere)
	list(c, &m.ArrayCRC, c.uvarint)
	list(c, &m.PlanSigs, c.str)
	varint(c, &m.ChainLen)
	list(c, &m.Deps, func(v *int) { varint(c, v) })
	list(c, &m.PieceLocs, func(l *[]PieceLoc) { c.frame(l, new([]stream.SectionSum)) })
	list(c, &m.Sections, func(s *[]stream.SectionSum) { c.frame(new([]PieceLoc), s) })
}

// metaCodec appends fields to b, or with dec reads them from b: one walk
// encodes and decodes. A failed read sets err and empties b.
type metaCodec struct {
	dec bool
	b   []byte
	err error
}

func (c *metaCodec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	c.b = nil
}

func (c *metaCodec) uvarint(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
	} else if x, n := binary.Uvarint(c.b); n <= 0 {
		c.fail("malformed varint")
	} else {
		*v, c.b = x, c.b[n:]
	}
}

// varint is a zigzag varint, binary.AppendVarint's.
func varint[T int | int64 | uint8](c *metaCodec, v *T) {
	u := uint64(*v)<<1 ^ uint64(int64(*v)>>63)
	if c.uvarint(&u); c.dec {
		*v = T(int64(u>>1) ^ -int64(u&1))
	}
}

// bytes is a uvarint length and that many bytes.
func (c *metaCodec) bytes(v *[]byte) {
	n := uint64(len(*v))
	if c.uvarint(&n); !c.dec {
		c.b = append(c.b, *v...)
	} else if n > uint64(len(c.b)) {
		c.fail("length %d exceeds the %d bytes left", n, len(c.b))
	} else {
		*v, c.b = c.b[:n:n], c.b[n:]
	}
}

func (c *metaCodec) str(s *string) {
	b := []byte(*s)
	if c.bytes(&b); c.dec {
		*s = string(b)
	}
}

// list is a uvarint count and the elements, each at least a byte: a read
// refuses a count the bytes left cannot hold, and an empty list is nil.
func list[T any](c *metaCodec, s *[]T, each func(*T)) {
	n := uint64(len(*s))
	if c.uvarint(&n); c.dec {
		if *s = nil; n > uint64(len(c.b)) {
			c.fail("count %d exceeds the %d bytes left", n, len(c.b))
		} else if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		each(&(*s)[i])
	}
}

// frame is one encodeLocSums frame behind its length.
func (c *metaCodec) frame(locs *[]PieceLoc, sums *[]stream.SectionSum) {
	var f []byte
	if !c.dec {
		f = encodeLocSums(*locs, *sums)
	}
	if c.bytes(&f); c.dec && c.err == nil {
		var err error
		if *locs, *sums, err = decodeLocSums(f, nil, nil); err != nil {
			c.fail("%v", err)
		}
	}
}

func (c *metaCodec) slice(s *rangeset.Slice) {
	axes := make([]rangeset.Range, s.Rank())
	for i := range axes {
		axes[i] = s.Axis(i)
	}
	if list(c, &axes, c.axis); c.dec {
		*s = rangeset.NewSlice(axes...)
	}
}

// axis is an index list, or an empty one and a regular range's lo, hi
// and step (the empty range's 0, -1, 1). A read refuses what List or Reg
// would panic on: indices out of order, a non-positive step.
func (c *metaCodec) axis(r *rangeset.Range) {
	t, idx := [3]int{0, -1, 1}, []int(nil)
	if !c.dec && !r.IsRegular() {
		idx = r.Elements()
	} else if !c.dec && !r.Empty() {
		t[0], t[1], t[2] = r.Bounds()
	}
	if list(c, &idx, func(v *int) { varint(c, v) }); len(idx) == 0 {
		for i := range t {
			varint(c, &t[i])
		}
	}
	if !c.dec || c.err != nil {
		return
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			c.fail("stored indices not strictly increasing at %d", i)
			return
		}
	}
	switch lo, hi, st := t[0], t[1], t[2]; {
	case len(idx) > 0:
		*r = rangeset.List(idx...)
	case st <= 0 || hi >= lo && hi-lo < 0:
		c.fail("stored range %d:%d:%d is not a range", lo, hi, st)
	default:
		*r = rangeset.Reg(lo, hi, st)
	}
}

// shapeError describes how m's tables contradict the rest of m ("" when
// they do not): one segment entry per segment file, at most one array
// table entry per array (exactly one location list and stream CRC in
// DRMS mode), and piece extents a reader can act on.
func shapeError(m *Meta) string {
	segs, n := 1, len(m.Arrays)
	if m.Mode == ModeSPMD {
		segs = m.Tasks
	}
	if len(m.SegBytes) != segs || len(m.SegCRC) != segs || len(m.PlanSigs) > n || len(m.Sections) > n ||
		len(m.ArrayCRC) > n || len(m.PieceLocs) > n || m.Mode == ModeDRMS && (len(m.ArrayCRC) != n || len(m.PieceLocs) != n) {
		return fmt.Sprintf("tables disagree with its %d segments and %d arrays", segs, n)
	}
	for i, locs := range m.PieceLocs {
		for _, l := range locs {
			// A raw piece is stored as itself; no codec here expands one
			// stored byte into more than codec.MaxExpansion logical bytes.
			if l.Bytes < 0 || l.FileOff < 0 || l.FileBytes < 0 || m.Arrays[i].Bytes < 0 ||
				codec.ID(l.Codec) == codec.Raw && l.FileBytes != l.Bytes ||
				l.Bytes/codec.MaxExpansion > l.FileBytes {
				return fmt.Sprintf("array %q piece %d has an impossible extent", m.Arrays[i].Name, l.Index)
			}
		}
	}
	return ""
}
