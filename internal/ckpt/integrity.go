package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"drms/internal/crc"
	"drms/internal/msg"
	"drms/internal/pfs"
)

// Checkpoint integrity: every array file and segment file carries a
// CRC-64/ECMA of its full contents in the metadata, computed *during* the
// checkpoint without re-reading anything. Parallel streaming writes the
// pieces of one file from many tasks concurrently, so per-piece CRCs are
// gathered and combined (internal/crc): rank 0 combines once per piece
// per array at every commit while the other ranks wait. Verify re-reads
// files sequentially and compares.

// crcOf returns the CRC-64/ECMA of data.
func crcOf(data []byte) uint64 { return crc.Checksum(data) }

// PieceSum records the checksum of one streamed piece; the per-array
// piece lists in the metadata are what restores verify pieces against.
type PieceSum struct {
	Index int
	Off   int64 // stream-relative byte offset
	CRC   uint64
	Bytes int64
}

// pieceCRC is the internal alias used while collecting.
type pieceCRC = PieceSum

// crcCollector returns a stream.Options.PieceHook plus the slice it
// fills. Each task collects only the pieces it handled.
func crcCollector() (func(int, int64, []byte), *[]pieceCRC) {
	var pieces []pieceCRC
	hook := func(idx int, off int64, data []byte) {
		pieces = append(pieces, pieceCRC{Index: idx, Off: off, CRC: crcOf(data), Bytes: int64(len(data))})
	}
	return hook, &pieces
}

// combinePieces folds an unordered set of piece CRCs covering a whole
// stream into the CRC of the stream. The pieces' index order is their
// stream order; any partition of the stream combines to the same value.
func combinePieces(pieces []pieceCRC) uint64 {
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].Index < pieces[j].Index })
	var acc uint64
	for _, p := range pieces {
		acc = crc.Combine(acc, p.CRC, p.Bytes)
	}
	return acc
}

// pieceSumBytes is a PieceSum's fixed-width little-endian gather record.
const pieceSumBytes = 4 + 8 + 8 + 8

func appendPieceSum(buf []byte, p PieceSum) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Index))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Off))
	buf = binary.LittleEndian.AppendUint64(buf, p.CRC)
	return binary.LittleEndian.AppendUint64(buf, uint64(p.Bytes))
}

// pieceSumAt decodes the record at the start of b (len(b) >= pieceSumBytes).
func pieceSumAt(b []byte) PieceSum {
	return PieceSum{
		Index: int(binary.LittleEndian.Uint32(b[0:4])),
		Off:   int64(binary.LittleEndian.Uint64(b[4:12])),
		CRC:   binary.LittleEndian.Uint64(b[12:20]),
		Bytes: int64(binary.LittleEndian.Uint64(b[20:28])),
	}
}

// gatherPieces collects every task's piece CRCs at root and returns the
// sorted full list there (nil elsewhere).
func gatherPieces(comm *msg.Comm, root int, mine []pieceCRC) ([]pieceCRC, error) {
	buf := make([]byte, 0, len(mine)*pieceSumBytes)
	for _, p := range mine {
		buf = appendPieceSum(buf, p)
	}
	parts, err := comm.Gather(root, buf)
	if err != nil {
		return nil, err
	}
	if comm.Rank() != root {
		return nil, nil
	}
	var all []pieceCRC
	for _, part := range parts {
		for ; len(part) >= pieceSumBytes; part = part[pieceSumBytes:] {
			all = append(all, pieceSumAt(part))
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Index < all[j].Index })
	return all, nil
}

// checkStreamCRC validates a restored stream against the checkpointed
// checksum: every task contributes the pieces it read; root combines and
// compares; the verdict is broadcast so all tasks agree. mismatch=true
// (with a nil error) reports an integrity failure; a non-nil error is a
// communication failure of the check itself.
func checkStreamCRC(comm *msg.Comm, mine []pieceCRC, want uint64) (mismatch bool, err error) {
	all, err := gatherPieces(comm, 0, mine)
	if err != nil {
		return false, err
	}
	ok := byte(1)
	if comm.Rank() == 0 && combinePieces(all) != want {
		ok = 0
	}
	verdict, err := comm.Bcast(0, []byte{ok})
	if err != nil {
		return false, err
	}
	return verdict[0] == 0, nil
}

// pieceVerifier checks pieces against a checkpoint's per-piece checksums
// as a stream read delivers them, recording the first corrupt piece.
// Pieces outside the stored plan (different extent) are ignored — the
// whole-stream check still covers them.
type pieceVerifier struct {
	want map[int]PieceSum
	bad  int64 // atomic: first corrupt piece index + 1; 0 = none
}

func newPieceVerifier(pieces []PieceSum) *pieceVerifier {
	v := &pieceVerifier{want: make(map[int]PieceSum, len(pieces))}
	for _, p := range pieces {
		v.want[p.Index] = p
	}
	return v
}

func (v *pieceVerifier) hook(idx int, off int64, data []byte) {
	p, ok := v.want[idx]
	if !ok || p.Off != off || p.Bytes != int64(len(data)) {
		return
	}
	if crcOf(data) != p.CRC {
		atomic.CompareAndSwapInt64(&v.bad, 0, int64(idx)+1)
	}
}

// badPiece returns the first corrupt piece this task saw, or -1.
func (v *pieceVerifier) badPiece() int {
	return int(atomic.LoadInt64(&v.bad)) - 1
}

// agreeWorstPiece agrees collectively on a corrupt piece index: the
// maximum over all tasks' verdicts (-1 = clean everywhere).
func agreeWorstPiece(comm *msg.Comm, mine int) (int, error) {
	v, err := comm.AllreduceF64(float64(mine), msg.Max)
	if err != nil {
		return -1, err
	}
	return int(v), nil
}

// CorruptError reports a checkpoint whose bytes on storage no longer
// match its metadata — torn by an interrupted overwrite of a non-rotated
// prefix, or damaged at rest. It is typed so the recovery supervisor and
// drmsfsck can distinguish "this generation is corrupt, fall back to an
// older one" from environmental failures (missing files, transport
// errors), and it attributes the damage as precisely as the metadata
// allows: the file, and for arrays with per-piece checksums, the guilty
// piece.
type CorruptError struct {
	Prefix string // the generation prefix that failed verification
	Gen    int    // generation number; -1 for non-rotated prefixes
	Piece  int    // index of the corrupt streamed piece; -1 if unattributed
	File   string // the file whose contents disagree with the metadata
	Detail string
}

func (e *CorruptError) Error() string {
	where := e.File
	if e.Piece >= 0 {
		where = fmt.Sprintf("%s piece %d", e.File, e.Piece)
	}
	return fmt.Sprintf("ckpt: %q fails integrity check (%s): %s", e.Prefix, where, e.Detail)
}

// corrupt builds a CorruptError for a file of the given checkpoint,
// deriving the generation number from the prefix. Every integrity
// failure flows through here, so this is also where the verify-failure
// counter ticks.
func corrupt(prefix, file string, piece int, format string, args ...any) *CorruptError {
	ckptVerifyFailures.Inc()
	_, gen := genBase(prefix)
	return &CorruptError{Prefix: prefix, Gen: gen, Piece: piece, File: file,
		Detail: fmt.Sprintf(format, args...)}
}

// Verify re-reads every file of a checkpoint sequentially and compares
// sizes and CRC-64 checksums against the metadata. It is the offline
// integrity check (fsck) for archived states; restarts additionally
// verify inline as they load. Integrity failures return *CorruptError —
// with the guilty piece attributed when the metadata carries per-piece
// checksums — so callers (the recovery supervisor, drmsfsck) can
// quarantine the generation and fall back.
func Verify(fs *pfs.System, prefix string, client int) error {
	return VerifyTier(fs, nil, prefix, client)
}

// VerifyTier is Verify with the hot in-memory tier available: memory-
// resident payloads (diskless generations, TierMem locations) verify
// against surviving peer replicas instead of files. With a nil tier
// every memory-resident payload fails verification — the correct answer
// when peer memory is gone: the generation quarantines and resolution
// falls back to the newest disk-resident one.
func VerifyTier(fs *pfs.System, tier *MemTier, prefix string, client int) error {
	// Accept a user-facing prefix for a rotated checkpoint: verify the
	// newest committed generation.
	prefix, _ = Resolve(fs, prefix)
	m, err := ReadMeta(fs, prefix, client)
	if err != nil {
		return err
	}
	switch m.Mode {
	case ModeDRMS:
		if m.SegWhere == TierMem {
			if !tier.Check(prefix, "", segIndex, m.SegCRC[0]) {
				return corrupt(prefix, segFile(prefix), -1,
					"memory-resident segment has no surviving replica")
			}
		} else if err := verifyFile(fs, prefix, segFile(prefix), client, m.SegBytes[0], m.SegCRC[0]); err != nil {
			return err
		}
		if m.Version >= chainVersion && len(m.PieceLocs) > 0 {
			// Chained checkpoints store pieces, not whole array files;
			// verify each stored extent, across the whole chain.
			return verifyChained(fs, tier, prefix, &m, client)
		}
		for i, am := range m.Arrays {
			// Array files are exactly the stream bytes.
			file := arrFile(prefix, am.Name)
			if err := verifyFile(fs, prefix, file, client, am.Bytes, m.ArrayCRC[i]); err != nil {
				var ce *CorruptError
				if errors.As(err, &ce) && len(m.ArrayPieces) > i {
					// Attribute the damage to the first corrupt piece.
					if p, perr := findCorruptPiece(fs, file, client, m.ArrayPieces[i]); perr == nil && p >= 0 {
						ce.Piece = p
					}
				}
				return err
			}
		}
	case ModeSPMD:
		for task := 0; task < m.Tasks; task++ {
			if err := verifyFile(fs, prefix, taskSegFile(prefix, task), client, m.SegBytes[task], m.SegCRC[task]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("ckpt: unknown mode %q", m.Mode)
	}
	return nil
}

// findCorruptPiece re-reads the extents named by the per-piece checksums
// and returns the index of the first piece whose CRC disagrees (-1 when
// every piece matches — the damage then lies outside the piece map).
func findCorruptPiece(fs *pfs.System, name string, client int, pieces []PieceSum) (int, error) {
	for _, p := range pieces {
		// An unreadable extent is attributed to its piece as well.
		if sum, err := readCRC(fs, name, client, 0, p.Off, p.Bytes); err != nil || sum != p.CRC {
			return p.Index, nil
		}
	}
	return -1, nil
}

// verifyFile checks one file's size and CRC.
func verifyFile(fs *pfs.System, prefix, name string, client int, wantSize int64, wantCRC uint64) error {
	sz, err := fs.Size(name)
	if err != nil {
		return fmt.Errorf("ckpt: verify %q: %w", name, err)
	}
	if sz != wantSize {
		return corrupt(prefix, name, -1, "%d bytes, metadata says %d", sz, wantSize)
	}
	sum, err := readCRC(fs, name, client, 0, 0, sz)
	if err != nil {
		return fmt.Errorf("ckpt: verify %q: %w", name, err)
	}
	if sum != wantCRC {
		return corrupt(prefix, name, -1, "crc %016x, metadata %016x", sum, wantCRC)
	}
	return nil
}
