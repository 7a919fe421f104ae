package ckpt

import (
	"bytes"
	"errors"
	"fmt"

	"drms/internal/codec"
	"drms/internal/frame"
	"drms/internal/pfs"
	"drms/internal/stream"
)

// Metadata version 3 (DESIGN.md §3g) is one byte frame for every record,
// a function of the Meta alone. One without metaMagic is a gob record of
// version 1 or 2, which only Upgrade reads.
const (
	metaMagic   = "DRMSmeta"
	metaVersion = 3
)

// ErrLegacyFormat marks a checkpoint with gob metadata, or a state store
// generation with a gob image: intact, so never quarantined, but read only
// once Upgrade or StateStore.Upgrade (drmsfsck -repair) rewrote it.
var ErrLegacyFormat = errors.New("ckpt: legacy format (gob metadata of version 1 or 2, or a gob state image); upgrade it once with drmsfsck -repair")

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
	c := &frame.Codec{B: make([]byte, 0, 512)}
	walkMeta(c, m)
	return c.B
}

// decodeMeta is ReadMeta on bytes read. A record is accepted only as the
// encoding of what it decodes to: each Meta has one spelling.
func decodeMeta(b []byte, prefix string) (Meta, error) {
	if !bytes.HasPrefix(b, []byte(metaMagic)) {
		return Meta{}, fmt.Errorf("%w: %q", ErrLegacyFormat, prefix)
	}
	m := Meta{Version: metaVersion}
	if err := frame.Decode(b, func(c *frame.Codec) { walkMeta(c, &m) }); err != nil {
		return Meta{}, corrupt(prefix, metaFile(prefix), -1, "metadata does not decode: %v", err)
	}
	if bad := shapeError(&m); bad != "" {
		return Meta{}, corrupt(prefix, metaFile(prefix), -1, "metadata %s", bad)
	}
	return m, nil
}

// walkMeta walks the magic, the version, then m's fields in declaration
// order, the piece tables as encodeLocSums frames.
func walkMeta(c *frame.Codec, m *Meta) {
	c.Head(metaMagic, metaVersion)
	c.Str((*string)(&m.Mode))
	frame.Varint(c, &m.Tasks)
	c.Str(&m.Ctx.SOP)
	frame.Varint(c, &m.Ctx.Step)
	frame.Varint(c, &m.Ctx.Tasks)
	frame.List(c, &m.Arrays, func(a *ArrayMeta) {
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
	frame.List(c, &m.PieceLocs, func(l *[]PieceLoc) { locSumsFrame(c, l, new([]stream.SectionSum)) })
	frame.List(c, &m.Sections, func(s *[]stream.SectionSum) { locSumsFrame(c, new([]PieceLoc), s) })
}

// locSumsFrame is one encodeLocSums frame behind its length.
func locSumsFrame(c *frame.Codec, locs *[]PieceLoc, sums *[]stream.SectionSum) {
	var f []byte
	if !c.Dec {
		f = encodeLocSums(*locs, *sums)
	}
	if c.Bytes(&f); c.Dec && c.Err == nil {
		var err error
		if *locs, *sums, err = decodeLocSums(f, nil, nil); err != nil {
			c.Fail("%v", err)
		}
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
