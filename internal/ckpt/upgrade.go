package ckpt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"

	"drms/internal/codec"
	"drms/internal/pfs"
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
	for _, dst := range []any{&m, &v1} {
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(dst); err != nil {
			return false, corrupt(prefix, metaFile(prefix), -1, "metadata does not decode: %v", err)
		}
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
