package ckpt

import (
	"cmp"
	"fmt"
	"sort"

	"drms/internal/crc"
	"drms/internal/frame"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/seg"
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

// readVerdict is rank 0's verdict on a restore (checkRead).
type readVerdict struct {
	Array int   // the failed array, -1 when every array passed
	Piece int   // its bad piece, or -1: its stream CRC mismatched
	Mem   int64 // cluster-wide restored bytes served by peer memory
	PFS   int64 // … and by the pfs
}

// checkRead is a restore's one integrity round (decideAtRoot): rank 0
// judges every task's piece CRCs, array by array — with verify, a piece
// whose extent matches its stored location but whose CRC does not is bad;
// with whole, the pieces must combine to ArrayCRC — and sums the tier
// byte counts. It returns the totals, or the *CorruptError all agree on.
func checkRead(comm *msg.Comm, prefix string, m *Meta, pieces [][]PieceSum, tier [2]int64, verify, whole bool) ([2]int64, error) {
	frame, _ := readSums(false, nil, pieces, &tier)
	payload, err := decideAtRoot(comm, frame, func(parts [][]byte) ([]byte, error) {
		v := readVerdict{Array: -1, Piece: -1}
		all := make([][]PieceSum, len(pieces))
		for _, part := range parts {
			var t [2]int64
			if _, err := readSums(true, part, all, &t); err != nil {
				return nil, fmt.Errorf("ckpt: gathering read piece sums: %w", err)
			}
			v.Mem, v.PFS = v.Mem+t[0], v.PFS+t[1]
		}
		for i, ps := range all {
			sort.Slice(ps, func(a, b int) bool { return ps[a].Index < ps[b].Index })
			if verify {
				v.Piece = firstBadPiece(ps, m.PieceLocs[i])
			}
			if v.Piece >= 0 || whole && combinePieces(ps) != m.ArrayCRC[i] {
				v.Array = i
				break
			}
		}
		return verdictFrame(false, nil, &v, len(pieces))
	})
	var v readVerdict
	if err == nil {
		if _, err = verdictFrame(true, payload, &v, len(pieces)); err != nil {
			err = fmt.Errorf("ckpt: decoding the integrity verdict: %w", err)
		}
	}
	switch {
	case err != nil:
		return tier, err
	case v.Array < 0:
		return [2]int64{v.Mem, v.PFS}, nil
	case v.Piece >= 0:
		return tier, corrupt(prefix, arrFile(prefix, m.Arrays[v.Array].Name), v.Piece, "piece crc mismatch on read")
	}
	return tier, corrupt(prefix, arrFile(prefix, m.Arrays[v.Array].Name), -1, "array %q stream crc mismatch", m.Arrays[v.Array].Name)
}

// decideAtRoot is an SOP's control round: one gather brings rank 0 every
// task's frame, it alone decides, and one broadcast returns the decision
// to every task, rank 0 too. A decision rank 0 cannot reach fails it, and
// the empty one it broadcasts instead fails every other task's decoder.
func decideAtRoot(comm *msg.Comm, frame []byte, decide func(parts [][]byte) ([]byte, error)) ([]byte, error) {
	parts, err := comm.Gather(0, frame)
	if err != nil && comm.Rank() != 0 {
		return nil, err
	}
	var payload []byte
	if comm.Rank() == 0 && err == nil {
		if payload, err = decide(parts); err != nil {
			payload = nil
		}
	}
	payload, berr := comm.Bcast(0, payload)
	return payload, cmp.Or(err, berr)
}

// readSums frames a task's part of checkRead: per array, the pieces it
// read as a list of PieceSum records, then its tier byte counts. It
// encodes, or with dec appends b's pieces and reads tier.
func readSums(dec bool, b []byte, pieces [][]PieceSum, tier *[2]int64) ([]byte, error) {
	c := &frame.Codec{Dec: dec, B: b}
	for i := range pieces {
		ps := pieces[i]
		if frame.List(c, &ps, func(p *PieceSum) { pieceSum(c, p) }); dec {
			pieces[i] = append(pieces[i], ps...)
		}
	}
	frame.Varint(c, &tier[0])
	frame.Varint(c, &tier[1])
	return c.End()
}

// verdictFrame frames checkRead's verdict as four varints. It encodes v,
// or with dec decodes b into it, refusing one about no array of n.
func verdictFrame(dec bool, b []byte, v *readVerdict, n int) ([]byte, error) {
	c := &frame.Codec{Dec: dec, B: b}
	frame.Varint(c, &v.Array)
	frame.Varint(c, &v.Piece)
	frame.Varint(c, &v.Mem)
	frame.Varint(c, &v.PFS)
	if dec && c.Err == nil && (v.Array < -1 || v.Array >= n || v.Piece < -1 || v.Array < 0 && v.Piece >= 0) {
		c.Fail("verdict on piece %d of array %d of %d", v.Piece, v.Array, n)
	}
	return c.End()
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
			data, ok := tier.Lookup(prefix, "", segIndex, m.SegCRC[0])
			if !ok {
				return corrupt(prefix, segFile(prefix), -1,
					"memory-resident segment has no surviving replica")
			}
			if err := refuseLegacySegment(prefix, &m, data); err != nil {
				return err
			}
		} else if err := verifySegment(fs, prefix, segFile(prefix), client, &m, 0); err != nil {
			return err
		}
		// Arrays are stored as pieces: verify each stored extent, across
		// the whole chain.
		return verifyChained(fs, tier, prefix, &m, client)
	case ModeSPMD:
		for task := 0; task < m.Tasks; task++ {
			if err := verifySegment(fs, prefix, taskSegFile(prefix, task), client, &m, task); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("ckpt: unknown mode %q", m.Mode)
	}
}

// refuseLegacySegment is ErrLegacyFormat, not corruption, for an
// application's segment payload an earlier build wrote (seg.Legacy). A
// generation with a zero Ctx is a state store's, whose image
// ReadStateImage judges: every application checkpoint stamps Ctx.Tasks.
func refuseLegacySegment(prefix string, m *Meta, payload []byte) error {
	if m.Ctx.Tasks > 0 && seg.Legacy(payload) {
		return fmt.Errorf("%w: %q holds a gob segment", ErrLegacyFormat, prefix)
	}
	return nil
}

// verifySegment checks task's segment file's size and CRC against m, then
// refuses a gob payload from the file's opening bytes.
func verifySegment(fs *pfs.System, prefix, name string, client int, m *Meta, task int) error {
	sz, err := fs.Size(name)
	if err != nil {
		return fmt.Errorf("ckpt: verify %q: %w", name, err)
	}
	if sz != m.SegBytes[task] {
		return corrupt(prefix, name, -1, "%d bytes, metadata says %d", sz, m.SegBytes[task])
	}
	head := make([]byte, segHeader+seg.LegacyProbe)
	sum, err := readCRC(fs, name, client, 0, 0, sz)
	if err == nil && sz >= int64(len(head)) {
		err = fs.ReadAt(client, name, head, 0)
	}
	if err != nil {
		return fmt.Errorf("ckpt: verify %q: %w", name, err)
	}
	if sum != m.SegCRC[task] {
		return corrupt(prefix, name, -1, "crc %016x, metadata %016x", sum, m.SegCRC[task])
	}
	return refuseLegacySegment(prefix, m, head[segHeader:])
}
