package ckpt

import (
	"fmt"

	"drms/internal/codec"
	"drms/internal/pfs"
)

// Upgrade is the one decoder of DRMS metadata version 1 left in the tree.
// A version 1 checkpoint stores each array's stream as one raw file
// P.arr.<name> and its piece checksums in a table of its own: a version 2
// checkpoint with one task-0 piece file per array. Upgrade rewrites the
// legacy checkpoint under prefix (ErrLegacyFormat) in place: it copies
// each stream file to that piece file, builds the location table from the
// piece checksums (one whole-stream piece when there are none), commits
// the metadata last through writeMeta's atomic rename, and removes the
// version 1 files only once the result verifies.
//
// A crash before the commit leaves the version 1 metadata in charge, so a
// rerun starts over. upgraded is false, with a nil error, for a prefix
// that needs no upgrade. Offline and single-client, like Squash:
// drmsfsck -repair runs it.
func Upgrade(fs *pfs.System, prefix string, client int) (upgraded bool, err error) {
	var m Meta
	var v1 struct { // Version rides along: a record without the table still decodes
		Version     int
		ArrayPieces [][]PieceSum
	}
	if err := decodeMeta(fs, prefix, client, &m, &v1); err != nil || !legacy(&m) {
		return false, err
	}
	_, gen := genBase(prefix)
	m.Version = chainVersion
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
	if bad := shapeError(&m); bad != "" {
		return false, corrupt(prefix, metaFile(prefix), -1, "metadata %s", bad)
	}
	for _, am := range m.Arrays {
		if err := copyFile(fs, client, arrFile(prefix, am.Name), pieceFile(prefix, am.Name, 0), am.Bytes); err != nil {
			return false, fmt.Errorf("ckpt: upgrading array %q of %q: %w", am.Name, prefix, err)
		}
	}
	if err := writeMeta(fs, prefix, client, m); err != nil {
		return false, err
	}
	if err := VerifyTier(fs, nil, prefix, client); err != nil {
		return false, fmt.Errorf("ckpt: upgraded %q does not verify, its version 1 array files stay: %w", prefix, err)
	}
	for _, am := range m.Arrays {
		fs.Remove(arrFile(prefix, am.Name))
	}
	return true, nil
}
