package ckpt

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"maps"
	"reflect"

	"drms/internal/codec"
	"drms/internal/pfs"
	"drms/internal/seg"
)

// Upgrade, the one reader of gob metadata, rewrites the checkpoint under
// prefix (ErrLegacyFormat) as version 3. A DRMS version 2, SPMD or
// StateStore record only gets a new meta, holding exactly the gob
// record's Meta; payloads are not re-read (a memory-only generation has
// none on disk). A DRMS version 1 checkpoint also has each array's stream
// in one raw file P.arr.<name>: Upgrade copies it to a task-0 piece file,
// locates its pieces from the version 1 checksum table (one whole-stream
// piece when there is none), and removes the stream files once the
// result verifies. The meta is committed last by writeMeta's rename: a
// crash before it leaves the gob record in charge, and a rerun starts
// over. Offline and single-client, like Squash; upgraded is false, with
// a nil error, when there is nothing to upgrade.
func Upgrade(fs *pfs.System, prefix string, client int) (upgraded bool, err error) {
	b, err := readMetaFile(fs, prefix, client)
	if err != nil || bytes.HasPrefix(b, []byte(metaMagic)) {
		return false, err
	}
	var m Meta
	var v1 struct { // Version rides along: a record without the table still decodes
		Version     int
		ArrayPieces [][]PieceSum
	}
	if err := gobMeta(b, prefix, &m, &v1); err != nil {
		return false, err
	}
	if m.Version != 1 && m.Version != 2 {
		return false, fmt.Errorf("ckpt: %q: metadata version %d unsupported", prefix, m.Version)
	}
	v1DRMS := m.Mode == ModeDRMS && m.Version == 1 && len(m.Arrays) > 0
	m.Version = metaVersion
	if v1DRMS {
		_, gen := genBase(prefix)
		m.PieceLocs = make([][]PieceLoc, len(m.Arrays))
		for i, am := range m.Arrays {
			sums := []PieceSum{{Bytes: am.Bytes}}
			if i < len(v1.ArrayPieces) && len(v1.ArrayPieces[i]) > 0 {
				sums = v1.ArrayPieces[i]
			} else if i < len(m.ArrayCRC) {
				sums[0].CRC = m.ArrayCRC[i]
			}
			for _, p := range sums {
				m.PieceLocs[i] = append(m.PieceLocs[i], PieceLoc{PieceSum: p, Gen: gen,
					FileOff: p.Off, FileBytes: p.Bytes, Codec: uint8(codec.Raw), StoredCRC: p.CRC, Where: TierPFS})
			}
		}
	}
	got, err := decodeMeta(encodeMeta(&m), prefix)
	if err == nil && !reflect.DeepEqual(got, m) {
		err = fmt.Errorf("ckpt: %q: the version 3 record does not hold the gob record's metadata", prefix)
	}
	if err != nil {
		return false, err
	}
	if v1DRMS {
		for _, am := range m.Arrays {
			if err := copyFile(fs, client, arrFile(prefix, am.Name), pieceFile(prefix, am.Name, 0), am.Bytes); err != nil {
				return false, fmt.Errorf("ckpt: upgrading array %q of %q: %w", am.Name, prefix, err)
			}
		}
	}
	if err := writeMeta(fs, prefix, client, m); err != nil || !v1DRMS {
		return err == nil, err
	}
	if err := VerifyTier(fs, nil, prefix, client); err != nil {
		return false, fmt.Errorf("ckpt: upgraded %q does not verify, its version 1 array files stay: %w", prefix, err)
	}
	for _, am := range m.Arrays {
		fs.Remove(arrFile(prefix, am.Name))
	}
	return true, nil
}

// gobMeta decodes a gob metadata record into each of dst.
func gobMeta(b []byte, prefix string, dst ...any) error {
	for _, d := range dst {
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(d); err != nil {
			return corrupt(prefix, metaFile(prefix), -1, "metadata does not decode: %v", err)
		}
	}
	return nil
}

// readAnyMeta reads prefix's metadata, version 3 or gob.
func readAnyMeta(fs *pfs.System, prefix string) (m Meta, err error) {
	b, err := readMetaFile(fs, prefix, 0)
	if err == nil && bytes.HasPrefix(b, []byte(metaMagic)) {
		return decodeMeta(b, prefix)
	} else if err == nil {
		err = gobMeta(b, prefix, &m)
	}
	return m, err
}

// Upgrade rewrites a store an earlier coordinator wrote — a gob image at
// its head, its metadata gob still or upgraded already — as one framed
// anchor: the head's table, resolved by the legacy chain walk, is
// committed through Commit, so a crash before its meta leaves the store
// as it was. A head whose chain does not resolve is quarantined and the
// next older one tried, as Load did for such a store. gen is the anchor's
// generation, -1 when the newest generation that resolves is not a gob
// state image: a framed one, or not state-store-shaped (a DRMS record
// with no arrays and a zero Ctx, which every application checkpoint
// stamps). err is the first failure when no generation resolves.
// Offline, like Upgrade: nothing else may write the store meanwhile.
func (s *StateStore) Upgrade(fs *pfs.System) (gen int, quarantined []string, err error) {
	for {
		_, head, ok := Rotation{Base: s.Base}.Latest(fs)
		if !ok {
			return -1, quarantined, err
		}
		m, merr := readAnyMeta(fs, head)
		if merr != nil || m.Mode != ModeDRMS || len(m.Arrays) > 0 || m.Ctx != (seg.Context{}) {
			return -1, quarantined, merr
		}
		if _, ierr := readStateImage(fs, head); ierr == nil {
			return -1, quarantined, nil // a framed head: nothing (more) to upgrade
		}
		records, cerr := legacyTable(fs, s.Base, head, 0)
		if cerr == nil {
			gen, cerr = s.Commit(fs, records)
			return gen, quarantined, cerr
		}
		err = cmp.Or(err, cerr)
		Quarantine(fs, head)
		quarantined = append(quarantined, head)
	}
}

// legacyTable materializes the table of a gob image: an anchor's records,
// or a delta's records and tombstones over the table of its base
// generation, every link's segment checked against its metadata. The
// walk ends at maxStateChain links, far beyond any anchor interval an
// earlier coordinator used: a corrupt back-pointer cycle is an error.
func legacyTable(fs *pfs.System, base, prefix string, depth int) (map[string][]byte, error) {
	var img struct {
		Full    bool // an anchor: Records is the complete table
		Base    int  // a delta's base generation
		Records map[string][]byte
		Deleted []string // a delta's tombstones
	}
	m, err := readAnyMeta(fs, prefix)
	var b []byte
	if err == nil {
		b, err = readStateSegment(fs, prefix, &m)
	}
	if err == nil && gob.NewDecoder(bytes.NewReader(b)).Decode(&img) != nil {
		err = corrupt(prefix, segFile(prefix), -1, "legacy state image does not decode")
	}
	records := map[string][]byte{}
	switch {
	case err != nil:
		return nil, err
	case !img.Full && depth == maxStateChain:
		return nil, fmt.Errorf("ckpt: state chain under %q exceeds %d links", base, maxStateChain)
	case !img.Full:
		if records, err = legacyTable(fs, base, fmt.Sprintf("%s.g%d", base, img.Base), depth+1); err != nil {
			return nil, err
		}
	}
	for _, name := range img.Deleted {
		delete(records, name)
	}
	maps.Copy(records, img.Records)
	return records, nil
}

const maxStateChain = 1024
