package ckpt

import (
	"encoding/binary"
	"fmt"
	"sort"

	"drms/internal/crc"
	"drms/internal/msg"
	"drms/internal/pfs"
)

// Checkpoint integrity: every array stream, every stored piece and every
// segment file carries a CRC-64/ECMA in the metadata, computed *during*
// the checkpoint without re-reading anything. Parallel streaming writes
// the pieces of one stream from many tasks concurrently, so per-piece
// CRCs are gathered and combined (internal/crc): rank 0 combines once per
// piece per array at every commit while the other ranks wait. Verify
// re-reads the stored bytes sequentially and compares.

// crcOf returns the CRC-64/ECMA of data.
func crcOf(data []byte) uint64 { return crc.Checksum(data) }

// PieceSum records the checksum of one streamed piece; the piece
// locations in the metadata embed it, and restores verify pieces
// against it.
type PieceSum struct {
	Index int
	Off   int64 // stream-relative byte offset
	CRC   uint64
	Bytes int64
}

// crcCollector returns a stream.Options.PieceHook plus the slice it
// fills. Each task collects only the pieces it handled.
func crcCollector() (func(int, int64, []byte), *[]PieceSum) {
	var pieces []PieceSum
	hook := func(idx int, off int64, data []byte) {
		pieces = append(pieces, PieceSum{Index: idx, Off: off, CRC: crcOf(data), Bytes: int64(len(data))})
	}
	return hook, &pieces
}

// combinePieces folds an unordered set of piece CRCs covering a whole
// stream into the CRC of the stream. The pieces' index order is their
// stream order; any partition of the stream combines to the same value.
func combinePieces(pieces []PieceSum) uint64 {
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
func gatherPieces(comm *msg.Comm, root int, mine []PieceSum) ([]PieceSum, error) {
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
	var all []PieceSum
	for _, part := range parts {
		for ; len(part) >= pieceSumBytes; part = part[pieceSumBytes:] {
			all = append(all, pieceSumAt(part))
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Index < all[j].Index })
	return all, nil
}

// checkPieces is a restore's one integrity round for an array: every
// task contributes the pieces it read, root attributes and combines, and
// one broadcast carries both verdicts so all tasks agree. With locs
// (piece-level verification) root names the first piece whose extent
// (index, offset, length) matches a stored location but whose CRC does
// not — pieces of a different plan are not attributable — as bad, or -1.
// With whole (the stream was read whole) it combines the pieces and
// reports whether the stream's CRC differs from want. A non-nil error is
// a communication failure of the check itself.
func checkPieces(comm *msg.Comm, mine []PieceSum, locs []PieceLoc, whole bool, want uint64) (bad int, mismatch bool, err error) {
	all, err := gatherPieces(comm, 0, mine)
	if err != nil {
		return -1, false, err
	}
	var verdict [9]byte // mismatch flag, then bad+1
	if comm.Rank() == 0 {
		binary.LittleEndian.PutUint64(verdict[1:], uint64(firstBadPiece(all, locs)+1))
		if whole && combinePieces(all) != want {
			verdict[0] = 1
		}
	}
	got, err := comm.Bcast(0, verdict[:])
	if err != nil {
		return -1, false, err
	}
	if len(got) != len(verdict) {
		return -1, false, fmt.Errorf("ckpt: integrity verdict of %d bytes", len(got))
	}
	return int(binary.LittleEndian.Uint64(got[1:])) - 1, got[0] == 1, nil
}

// firstBadPiece returns the lowest-indexed piece of all (sorted by index)
// whose extent matches its stored location in locs but whose CRC does
// not, or -1.
func firstBadPiece(all []PieceSum, locs []PieceLoc) int {
	if len(locs) == 0 {
		return -1
	}
	want := make(map[int]PieceSum, len(locs))
	for _, l := range locs {
		want[l.Index] = l.PieceSum
	}
	for _, p := range all {
		if w, ok := want[p.Index]; ok && w.Off == p.Off && w.Bytes == p.Bytes && w.CRC != p.CRC {
			return p.Index
		}
	}
	return -1
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
		// Arrays are stored as pieces: verify each stored extent, across
		// the whole chain.
		return verifyChained(fs, tier, prefix, &m, client)
	case ModeSPMD:
		for task := 0; task < m.Tasks; task++ {
			if err := verifyFile(fs, prefix, taskSegFile(prefix, task), client, m.SegBytes[task], m.SegCRC[task]); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("ckpt: unknown mode %q", m.Mode)
	}
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
