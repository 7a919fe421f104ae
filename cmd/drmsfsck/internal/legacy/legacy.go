// Package legacy is drmsfsck -repair's reader of records of earlier
// builds: gob metadata of versions 1 and 2, version 3's fixed-width piece
// tables, segment payloads in gob, the coordinator's gob state images
// (some of them delta chains) and its gob records. It rewrites each as
// the frames the product reads (DESIGN.md §3g) and is linked into
// drmsfsck alone: the product refuses all of them with
// ckpt.ErrLegacyFormat.
package legacy

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"maps"

	"drms/internal/ckpt"
	"drms/internal/codec"
	"drms/internal/coord"
	"drms/internal/crc"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/stream"
)

// Upgrade rewrites the checkpoint under prefix, whose metadata is a gob
// record or a version 3 frame, or whose segments are gob, as metadata
// version 4 over framed segments. A segment file on disk — a DRMS
// checkpoint's one, an SPMD checkpoint's per task — is checked against
// its metadata, and its gob payload re-framed (upgradeSegments); nothing
// else is re-read (a memory-only segment has no file, and stays legacy).
// A DRMS version 1 checkpoint also has each array's stream in one raw
// file P.arr.<name>: Upgrade copies it to a task-0 piece file, locates
// its pieces from the version 1 checksum table (one whole-stream piece
// when there is none), and removes the stream files once the result
// verifies. The meta is committed last: a crash before it leaves the old
// record in charge, and a rerun starts over. Offline and single-client; upgraded is false, with
// a nil error, when there is nothing to upgrade.
func Upgrade(fs *pfs.System, prefix string, client int) (upgraded bool, err error) {
	m, g, err := readMeta(fs, prefix, client)
	if err != nil {
		return false, err
	}
	if g != nil && g.Version != 1 && g.Version != 2 {
		return false, fmt.Errorf("legacy: %q: metadata version %d unsupported", prefix, g.Version)
	}
	segs, err := upgradeSegments(fs, prefix, client, &m)
	if err != nil || g == nil && m.Version != 3 && !segs {
		return false, err
	}
	v1DRMS := m.Mode == ckpt.ModeDRMS && g != nil && g.Version == 1 && len(m.Arrays) > 0
	if v1DRMS {
		gen := genOf(prefix) // PieceLoc.Gen
		m.PieceLocs = make([][]ckpt.PieceLoc, len(m.Arrays))
		for i, am := range m.Arrays {
			sums := []ckpt.PieceSum{{Bytes: am.Bytes}}
			if i < len(g.ArrayPieces) && len(g.ArrayPieces[i]) > 0 {
				sums = g.ArrayPieces[i]
			} else if i < len(m.ArrayCRC) {
				sums[0].CRC = m.ArrayCRC[i]
			}
			for _, p := range sums {
				m.PieceLocs[i] = append(m.PieceLocs[i], ckpt.PieceLoc{PieceSum: p, Gen: gen,
					FileOff: p.Off, FileBytes: p.Bytes, Codec: uint8(codec.Raw), StoredCRC: p.CRC, Where: ckpt.TierPFS})
			}
			b := make([]byte, am.Bytes)
			if err := fs.ReadAt(client, streamFile(prefix, am.Name), b, 0); err != nil {
				return false, fmt.Errorf("legacy: upgrading array %q of %q: %w", am.Name, prefix, err)
			}
			fs.Create(ckpt.PieceFile(prefix, am.Name, 0))
			if err := fs.WriteAt(client, ckpt.PieceFile(prefix, am.Name, 0), b, 0); err != nil {
				return false, err
			}
		}
	}
	if err := ckpt.CommitMeta(fs, prefix, client, m); err != nil || !v1DRMS {
		return err == nil, err
	}
	if err := ckpt.VerifyTier(fs, nil, prefix, client); err != nil {
		return false, fmt.Errorf("legacy: upgraded %q does not verify, its version 1 array files stay: %w", prefix, err)
	}
	for _, am := range m.Arrays {
		fs.Remove(streamFile(prefix, am.Name))
	}
	return true, nil
}

// streamFile names a version 1 array's one stream file.
func streamFile(prefix, name string) string { return prefix + ".arr." + name }

// upgradeSegments re-frames each of m's segment files on disk whose
// payload is gob (seg.Legacy), after checking the file against m, and
// sets the file's new size and CRC in m. A state store's generation (a
// zero Ctx) holds a state image, which UpgradeStore rewrites. The new
// file is what this tree writes for the same segment: an SPMD payload's
// arrays' local bytes follow the frame as they followed the gob record,
// and the file is padded to the size model. A segment file has one name,
// so its rewrite comes before the meta's commit and not with it; the
// caller commits the meta at once.
func upgradeSegments(fs *pfs.System, prefix string, client int, m *ckpt.Meta) (upgraded bool, err error) {
	files := []string{prefix + ".seg"}
	switch {
	case m.Ctx.Tasks == 0 || m.Mode == ckpt.ModeDRMS && m.SegWhere == ckpt.TierMem:
		return false, nil
	case m.Mode == ckpt.ModeSPMD:
		files = files[:0]
		for task := range m.SegBytes {
			files = append(files, fmt.Sprintf("%s.task%d.seg", prefix, task))
		}
	}
	for i, name := range files {
		bad := func(format string, args ...any) error {
			return &ckpt.CorruptError{Prefix: prefix, Gen: genOf(prefix), Piece: -1, File: name, Detail: fmt.Sprintf(format, args...)}
		}
		if sz, err := fs.Size(name); err != nil || sz != m.SegBytes[i] || sz < 8 {
			return false, bad("%d bytes, metadata says %d (%v)", sz, m.SegBytes[i], err)
		}
		file := make([]byte, m.SegBytes[i])
		if err := fs.ReadAt(client, name, file, 0); err != nil {
			return false, err
		} else if sum := crc.Checksum(file); sum != m.SegCRC[i] {
			return false, bad("crc %016x, metadata %016x", sum, m.SegCRC[i])
		}
		plen := binary.LittleEndian.Uint64(file)
		if plen > uint64(len(file)-8) {
			return false, bad("a payload of %d bytes in a %d-byte file", plen, len(file))
		}
		blob := file[8 : 8+plen]
		if !seg.Legacy(blob) {
			continue
		}
		var p seg.Payload // a gob record of these fields, by name
		r := bytes.NewReader(blob)
		if err := gob.NewDecoder(r).Decode(&p); err != nil || len(p.Names) != len(p.Blobs) {
			return false, bad("a gob segment that does not decode (%d names, %d blobs): %v", len(p.Names), len(p.Blobs), err)
		}
		// The decoder consumed exactly the record: what follows it is an
		// SPMD task's local sections.
		blob = append(p.Encode(), blob[len(blob)-r.Len():]...)
		total := (&seg.Segment{Model: p.Model}).FileSize(len(blob))
		file = binary.LittleEndian.AppendUint64(make([]byte, 0, total), uint64(len(blob)))
		file = append(append(file, blob...), make([]byte, total-8-int64(len(blob)))...)
		fs.Create(name)
		if err := fs.WriteAt(client, name, file, 0); err != nil {
			return false, err
		}
		m.SegBytes[i], m.SegCRC[i], upgraded = total, crc.Checksum(file), true
	}
	return upgraded, nil
}

// genOf is the generation number of prefix, -1 when it is not rotated.
func genOf(prefix string) int {
	if _, n, ok := ckpt.GenOf(prefix); ok {
		return n
	}
	return -1
}

// gobMeta is ckpt.Meta as versions 1 and 2 stored it, with the version 1
// checksum table: gob matches fields by name and skips what is absent.
type gobMeta struct {
	Version     int
	Mode        ckpt.Mode
	Tasks       int
	Ctx         seg.Context
	Arrays      []gobArray
	SegBytes    []int64
	SegCRC      []uint64
	SegWhere    uint8
	ArrayCRC    []uint64
	PlanSigs    []string
	ChainLen    int
	Deps        []int
	PieceLocs   [][]ckpt.PieceLoc
	Sections    [][]stream.SectionSum
	ArrayPieces [][]ckpt.PieceSum
}

type gobArray struct {
	Name, Kind string
	Global     gobSlice
	Bytes      int64
}

// readMeta reads prefix's metadata: m is the record, g its gob form when
// it is one (nil for versions 3 and 4).
func readMeta(fs *pfs.System, prefix string, client int) (m ckpt.Meta, g *gobMeta, err error) {
	if m, err = ckpt.ReadMeta(fs, prefix, client); !errors.Is(err, ckpt.ErrLegacyFormat) {
		return m, nil, err
	}
	b, err := ckpt.ReadMetaFile(fs, prefix, client)
	if err == nil && bytes.HasPrefix(b, []byte(v3Head)) {
		if m, err = decodeV3(b); err != nil {
			err = fmt.Errorf("legacy: %q: version 3 metadata does not decode: %w", prefix, err)
		}
		return m, nil, err
	}
	g = new(gobMeta)
	if err == nil {
		err = gob.NewDecoder(bytes.NewReader(b)).Decode(g)
	}
	if err != nil {
		return m, nil, fmt.Errorf("legacy: %q: metadata does not decode: %w", prefix, err)
	}
	m = ckpt.Meta{Version: g.Version, Mode: g.Mode, Tasks: g.Tasks, Ctx: g.Ctx, SegBytes: g.SegBytes,
		SegCRC: g.SegCRC, SegWhere: g.SegWhere, ArrayCRC: g.ArrayCRC, PlanSigs: g.PlanSigs,
		ChainLen: g.ChainLen, Deps: g.Deps, PieceLocs: g.PieceLocs, Sections: g.Sections}
	for _, a := range g.Arrays {
		m.Arrays = append(m.Arrays, ckpt.ArrayMeta{Name: a.Name, Kind: a.Kind, Global: a.Global.s, Bytes: a.Bytes})
	}
	return m, g, nil
}

// gobRange and gobSlice decode a range and a slice of the gob era.
type gobRange struct{ r rangeset.Range }
type gobSlice struct{ s rangeset.Slice }

// GobDecode reads a regular triple or an index list. It refuses what no
// encoder wrote — a non-positive step, indices out of order or too far
// apart for an int — rather than panic in rangeset.Reg or List.
func (r *gobRange) GobDecode(b []byte) error {
	var w struct {
		Regular    bool
		Lo, Hi, St int
		Idx        []int
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	if w.Regular {
		if w.St <= 0 || w.Hi >= w.Lo && w.Hi-w.Lo < 0 {
			return fmt.Errorf("legacy: stored range %d:%d:%d is not a range", w.Lo, w.Hi, w.St)
		}
		r.r = rangeset.Reg(w.Lo, w.Hi, w.St)
		return nil
	}
	for i := 1; i < len(w.Idx); i++ {
		if w.Idx[i]-w.Idx[i-1] <= 0 || w.Idx[i]-w.Idx[0] <= 0 { // out of order, or too far apart for List
			return fmt.Errorf("legacy: stored indices not strictly increasing at %d", i)
		}
	}
	r.r = rangeset.List(w.Idx...)
	return nil
}

func (s *gobSlice) GobDecode(b []byte) error {
	var axes []gobRange
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&axes); err != nil {
		return err
	}
	rs := make([]rangeset.Range, len(axes))
	for i, a := range axes {
		rs[i] = a.r
	}
	s.s = rangeset.NewSlice(rs...)
	return nil
}

// UpgradeStore rewrites a coordinator state store an earlier build wrote
// as one the recovery supervisor reads: the table at its head — a gob
// image, resolved through its legacy delta chain, or a framed image
// holding gob records — is reframed (coord.ReframeRecords) and committed
// as a framed anchor, so a crash before its meta leaves the store as it
// was. A head that does not resolve is quarantined and the next older one
// tried, as the supervisor does. gen is the anchor's generation, -1 when
// there is nothing to rewrite or base is no state store. err is the first
// failure when no generation resolves. Offline, like Upgrade.
func UpgradeStore(fs *pfs.System, base string) (gen int, quarantined []string, err error) {
	for {
		head, ok, merr := storeHead(fs, base)
		if !ok || merr != nil {
			return -1, quarantined, cmp.Or(merr, err)
		}
		table, legacy, herr := headTable(fs, base, head)
		if herr == nil && !legacy {
			return -1, quarantined, nil
		} else if herr == nil {
			gen, herr = (&ckpt.StateStore{Base: base}).Commit(fs, table)
			return gen, quarantined, herr
		}
		err = cmp.Or(err, herr)
		ckpt.Quarantine(fs, head)
		quarantined = append(quarantined, head)
	}
}

// StoreIsLegacy reports whether base is a coordinator state store whose
// head the supervisor refuses though it is intact — a gob image, or gob
// records in a framed one — until UpgradeStore rewrites it. It changes
// nothing.
func StoreIsLegacy(fs *pfs.System, base string) bool {
	head, ok, err := storeHead(fs, base)
	if !ok || err != nil {
		return false
	}
	_, legacy, _ := headTable(fs, base, head)
	return legacy
}

// storeHead is base's newest committed generation when it is a state
// store's: a DRMS record with no arrays and a zero Ctx, which every
// application checkpoint stamps.
func storeHead(fs *pfs.System, base string) (head string, ok bool, err error) {
	_, head, ok = ckpt.Rotation{Base: base}.Latest(fs)
	if !ok {
		return "", false, nil
	}
	m, _, err := readMeta(fs, head, 0)
	return head, m.Mode == ckpt.ModeDRMS && len(m.Arrays) == 0 && m.Ctx == (seg.Context{}), err
}

// headTable is the table at a state store's head with every record a
// frame; legacy reports whether it met anything of the gob era on the
// way: a gob image or a gob record.
func headTable(fs *pfs.System, base, head string) (table map[string][]byte, legacy bool, err error) {
	table, err = imageTable(fs, base, head, 0, &legacy)
	if err == nil {
		table, err = coord.ReframeRecords(table, func(b []byte, rec any) error {
			legacy = true
			return gobRecord(b, rec)
		})
	}
	return table, legacy, err
}

// imageTable reads a generation's table. A gob image holds an anchor's
// records, or a delta's records and tombstones over the table of its
// base generation; every link's segment is checked against its metadata.
// The walk ends at maxStateChain links, far beyond any anchor interval an
// earlier coordinator used: a corrupt back-pointer cycle is an error.
func imageTable(fs *pfs.System, base, prefix string, depth int, legacy *bool) (map[string][]byte, error) {
	m, _, err := readMeta(fs, prefix, 0)
	if err != nil {
		return nil, err
	}
	return ckpt.ReadStateImage(fs, prefix, &m, func(b []byte) (map[string][]byte, error) {
		*legacy = true
		var img struct {
			Full    bool // an anchor: Records is the complete table
			Base    int  // a delta's base generation
			Records map[string][]byte
			Deleted []string // a delta's tombstones
		}
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&img); err != nil {
			return nil, fmt.Errorf("legacy: %q: state image does not decode: %w", prefix, err)
		}
		records := map[string][]byte{}
		if !img.Full && depth == maxStateChain {
			return nil, fmt.Errorf("legacy: state chain under %q exceeds %d links", base, maxStateChain)
		} else if !img.Full {
			if records, err = imageTable(fs, base, fmt.Sprintf("%s.g%d", base, img.Base), depth+1, legacy); err != nil {
				return nil, err
			}
		}
		for _, name := range img.Deleted {
			delete(records, name)
		}
		maps.Copy(records, img.Records)
		return records, nil
	})
}

const maxStateChain = 1024

// gobRecord decodes a coordinator record of the gob era into rec: the
// record's struct behind a Schema field, 1 in every such record.
func gobRecord(b []byte, rec any) error {
	var schema struct{ Schema int }
	for _, dst := range []any{&schema, rec} {
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(dst); err != nil {
			return fmt.Errorf("legacy: corrupt state record: %w", err)
		}
	}
	if schema.Schema > 1 {
		return fmt.Errorf("legacy: state record schema %d newer than any gob-era coordinator (1)", schema.Schema)
	}
	return nil
}
