package ckpt

// The DRMS checkpoint writer and the chained format it writes (metadata
// version 4, meta.go): every reconfigurable checkpoint is an anchor or a
// delta of a chain, with per-piece codecs.
//
// A checkpoint stores each array's distribution-independent stream as
// *pieces*: each writer task appends the pieces it streamed —
// raw or flate-compressed, chosen per piece — to its own compacted piece
// file "<prefix>.arr.<name>.p<task>", and the metadata records every
// piece's location (generation, task, file extent, codec, stored CRC)
// alongside its logical identity (index, stream offset, length, logical
// CRC).
//
// That location table is what makes deltas possible: a piece unchanged
// since the previous generation is not rewritten — its location record
// is copied verbatim, still pointing into the earlier generation's piece
// file. Whether a piece changed is decided from owner-side contribution
// fingerprints (stream.SectionSums, stored in the metadata): each task
// hashes its own contribution to each piece locally, one gather+
// broadcast unions the per-task diffs, and only the dirty pieces are
// streamed — clean pieces skip the two-phase redistribution entirely,
// so a delta's cost scales with what changed, not with the array size.
// Copying locations flat (rather than chaining metas) keeps every
// generation's metadata self-contained: resolving any piece costs one
// file read regardless of chain length, and a generation's dependency
// set is exactly the set of generation numbers appearing in its
// locations. Periodic anchors (ChainLen 0, no dependencies) bound chain
// length; Rotation.Prune keeps dependencies alive; Squash folds a chain
// back into a fresh anchor.
//
// Restores are distribution- AND layout-independent: a restart may
// replan the stream with a different task count, so its piece extents
// need not match the stored ones. The piece fetcher serves arbitrary
// logical extents, reading raw sub-ranges directly and decoding
// compressed pieces whole (with a small cache for straddling reads).

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drms/internal/codec"
	"drms/internal/frame"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/seg"
	"drms/internal/stream"
)

// PieceLoc locates one streamed piece's stored bytes in a chained
// checkpoint. It embeds the piece's logical identity and checksum
// (PieceSum); the remaining fields say where — and in what form — the
// bytes sit on storage.
type PieceLoc struct {
	PieceSum
	Gen       int    // generation whose piece file holds the bytes (-1: non-rotated prefix)
	Task      int    // writer task, selecting the piece file
	FileOff   int64  // offset of the stored bytes within the piece file
	FileBytes int64  // stored length (== Bytes raw, usually smaller under flate)
	Codec     uint8  // codec.ID of the stored representation
	StoredCRC uint64 // CRC-64/ECMA of the stored bytes as they sit in the file
	Where     uint8  // storage tier of the bytes (zero TierPFS: piece file)
}

// CodecMode selects how chained checkpoints encode pieces.
type CodecMode int

const (
	// CodecAuto lets the bytes-saved-per-second model decide per array
	// write whether flate pays, from observed storage bandwidth and
	// compression throughput (see chooseCodec).
	CodecAuto CodecMode = iota
	// CodecRaw stores every piece verbatim.
	CodecRaw
	// CodecFlate compresses every piece (with an automatic per-piece raw
	// fallback when compression would expand it).
	CodecFlate
)

func (m CodecMode) String() string {
	switch m {
	case CodecRaw:
		return "raw"
	case CodecFlate:
		return "flate"
	default:
		return "auto"
	}
}

// ChainOptions configure WriteDRMSChained.
type ChainOptions struct {
	// Prev names the previous committed generation of the same rotation
	// ("" = none): the delta base and the chain predecessor.
	Prev string
	// Delta requests a delta generation: pieces unchanged since Prev are
	// carried forward by location instead of rewritten. Silently demoted
	// to a full anchor when Prev is missing or incompatible (different
	// task count, arrays or plan, or a legacy checkpoint ReadMeta refuses).
	Delta bool
	// Codec is the piece codec policy.
	Codec CodecMode
	// NoDeltaBase promises that no delta will be taken against this
	// checkpoint, so its contribution fingerprints (Meta.Sections) are
	// neither computed — a pack and a CRC of every byte whose only reader
	// is the next delta's dirty test — nor stored. Callers derive it from
	// their anchor interval; a delta later requested against such a
	// checkpoint is demoted to an anchor, like one against any base
	// without fingerprints. The zero value fingerprints every write.
	NoDeltaBase bool
	// PrevMeta, if non-nil at task 0, is Prev's committed metadata — the
	// commit path's Stats.Meta of its previous write — saving a read;
	// compatibility is still validated. No other task needs the base.
	PrevMeta *Meta
	// Tier, if non-nil, is the hot in-memory checkpoint tier: every
	// written piece and the segment payload are replicated into
	// Replicas+1 peers' memory, overlapped with the file write (the
	// publish runs in the pipeline's encode stage, while the previous
	// piece's file write is in flight).
	Tier *MemTier
	// Replicas is k, the count of extra replica holders per payload
	// beyond the writer's own node (k+1 copies total). Clamped to the
	// communicator size minus one. Placement is round-robin from the
	// writer's rank over the communicator — deterministic and
	// layout-independent, since it reuses the cached piece partition.
	Replicas int
	// Holders maps rank -> holder (node) id for tier placement, so
	// replicas land in node memory rather than task memory. nil, or a
	// length other than the communicator size, uses ranks directly.
	Holders []int
	// MemOnly writes a diskless generation: piece and segment payloads
	// live only in the tier, and only the (tiny) metadata commit record
	// touches the file system. Restoring such a generation requires the
	// tier; verification quarantines it once its replicas are gone.
	MemOnly bool
}

// locPrefix resolves the generation prefix a location belongs to: the
// checkpoint's own prefix for its own generation, a sibling generation
// of the same rotation base otherwise. Tier payloads are keyed by this
// prefix too, so memory and disk residency resolve identically.
func locPrefix(base, self string, selfGen int, l PieceLoc) string {
	if l.Gen != selfGen && l.Gen >= 0 {
		return fmt.Sprintf("%s.g%d", base, l.Gen)
	}
	return self
}

// locPieceFile resolves the piece file a location points into.
func locPieceFile(base, self string, selfGen int, arr string, l PieceLoc) string {
	return PieceFile(locPrefix(base, self, selfGen, l), arr, l.Task)
}

// tierHolders is the replica placement: anchor rank w replicates into
// the nodes of ranks w, w+1, …, w+k (mod size) — k+1 copies on distinct
// nodes, so only the loss of k+1 specific nodes can lose a payload. For
// array pieces the anchor is the piece's majority *owner* under the
// array's distribution (stream.Options.PieceOwners), so an equal-layout
// restart finds nearly every byte in its own node's store; the writer
// rank anchors payloads with no owner (the segment, or when no owner
// map was received). Placement is deterministic either way.
func tierHolders(co ChainOptions, size, w int) []int {
	if co.Tier == nil {
		return nil
	}
	k := min(max(co.Replicas, 0), size-1)
	hs := make([]int, 0, k+1)
	for j := 0; j <= k; j++ {
		hs = append(hs, holderNode(co.Holders, size, (w+j)%size))
	}
	return hs
}

// publish replicates one payload into the holders' memory and charges
// the copies pushed to nodes other than the publisher's as network
// traffic in the I/O trace.
func publish(fs *pfs.System, co ChainOptions, client, selfNode int, hs []int, prefix, arr string, idx int, data []byte, crc uint64) {
	co.Tier.Publish(hs, prefix, arr, idx, data, crc)
	var remote int64
	for _, h := range hs {
		if h != selfNode {
			remote++
		}
	}
	if remote > 0 {
		fs.RecordNet(client, remote*int64(len(data)))
	}
}

// holderNode maps a rank to its tier store (node) id: through the
// rank->node map when one of the right length was supplied, identity
// otherwise.
func holderNode(holders []int, size, rank int) int {
	if len(holders) == size && rank >= 0 && rank < size {
		return holders[rank]
	}
	return rank
}

// WriteDRMSChained is the one DRMS checkpoint encoder: task 0's segment
// plus every array's pieces, compressed per the codec policy and — when
// ChainOptions request a delta and the previous generation is
// compatible — with unchanged pieces carried forward by back-pointer.
// Collective; all tasks pass the same arguments (SPMD). Returns this
// task's I/O statistics. The saved state is independent of the task
// count, so a restart may use an equal, smaller, or larger task set.
func WriteDRMSChained(fs *pfs.System, prefix string, comm *msg.Comm, sg *seg.Segment, arrays []ArrayRef, o stream.Options, co ChainOptions) (st Stats, err error) {
	me := comm.Rank()
	start := time.Now()
	defer func() { observeWrite(me, st, start, err) }()
	sg.Ctx.Tasks = comm.Size()

	base, selfGen := genBase(prefix)

	// Every task fingerprints its own contribution to every piece
	// (stream.SectionSums, local) for this delta's diff and the next's.
	sums := make([][]stream.SectionSum, len(arrays))
	sigs := make([]string, len(arrays))
	for i, a := range arrays {
		sigs[i] = stream.PlanSig(a.GlobalShape(), a.ElemSize(), comm.Size(), o)
		if co.Delta || !co.NoDeltaBase {
			if sums[i], err = a.SectionSums(o); err != nil {
				return st, err
			}
		}
	}
	// Only the dirty pieces of an array a delta covers stream; clean ones
	// are carried forward by back-pointer, neither moved nor hashed again.
	filters := make([][]int, len(arrays))
	var prev *Meta                     // rank 0: the delta base (nil: none)
	var secLists [][]stream.SectionSum // rank 0: every task's fingerprints
	if co.Delta {
		if prev, secLists, err = decideDelta(fs, comm, base, arrays, sigs, sums, filters, co); err != nil {
			return st, err
		}
		sums = make([][]stream.SectionSum, len(arrays)) // rank 0 has them: not gathered twice
	}

	// Phase 1: the selected task writes the data segment (always raw,
	// always rewritten — it is small next to the arrays).
	segBytes, segCRC, err := writeSegmentPhase(fs, prefix, comm, sg, co)
	if err != nil {
		return st, err
	}
	st.SegmentBytes = segBytes

	// Phase 2: arrays, streamed with the encode stage in the pipeline.
	// Delta-eligible arrays stream only their dirty pieces.
	metas := make([]ArrayMeta, len(arrays))
	locLists := make([][]PieceLoc, len(arrays))
	holders := tierHolders(co, comm.Size(), me)
	for i, a := range arrays {
		fs.BeginPhase(me, "arrays:"+a.Name())
		opts := o
		col := &locCollector{fs: fs, co: co, prefix: prefix, arr: a.Name(), gen: selfGen,
			task: me, size: comm.Size(), id: chooseCodec(co.Codec), holders: holders}
		opts.PieceHook = chainPieceHooks(o.PieceHook, col.hook)
		opts.EncodePiece = col.encode
		if co.Tier != nil {
			opts.PieceOwners = func(owners []int) { col.owners = owners }
		}
		opts.Pieces = filters[i]
		s, err := a.StreamWrite(fs, arrFile(prefix, a.Name()), opts)
		if err != nil {
			return st, fmt.Errorf("ckpt: streaming array %q: %w", a.Name(), err)
		}
		st.ArrayBytes += s.StreamBytes
		st.NetBytes += s.NetBytes
		st.StoredBytes += s.StoredBytes
		metas[i] = ArrayMeta{Name: a.Name(), Kind: a.Kind(), Global: a.GlobalShape(), Bytes: s.StreamBytes}
		locLists[i] = col.locs
	}
	// One gather brings rank 0 every array's locations, and the
	// fingerprints unless the delta decision brought them already.
	locLists, gathered, err := gatherLocSums(comm, locLists, sums)
	if err != nil {
		return st, err
	}

	// Phase 3: metadata, committed atomically via rename, written last.
	if me == 0 {
		fs.BeginPhase(me, "meta")
		chainLen := 0
		crcs := make([]uint64, len(arrays))
		for i := range locLists {
			if filters[i] != nil {
				// Clean pieces become back-pointers: the previous
				// generation's location records are carried forward
				// verbatim — same extent, same codec, same stored bytes,
				// wherever they already live.
				chainLen = prev.ChainLen + 1
				for _, l := range prev.PieceLocs[i] {
					if _, dirty := slices.BinarySearch(filters[i], l.Index); !dirty {
						locLists[i] = append(locLists[i], l)
						st.SkippedBytes += l.Bytes
						ckptPiecesReferenced.Inc()
					}
				}
				sort.Slice(locLists[i], func(a, b int) bool { return locLists[i][a].Index < locLists[i][b].Index })
			}
			crcs[i] = combineLocs(locLists[i])
		}
		if !co.Delta {
			secLists = gathered
		}
		segWhere := TierPFS
		if co.MemOnly {
			segWhere = TierMem
		}
		if prev == nil && co.NoDeltaBase {
			secLists = nil // an empty table is how a reader knows: no delta base
		}
		m := Meta{Version: metaVersion, Mode: ModeDRMS, Tasks: comm.Size(),
			Ctx: sg.Ctx, Arrays: metas, SegBytes: []int64{segBytes},
			SegCRC: []uint64{segCRC}, SegWhere: segWhere, ArrayCRC: crcs,
			PlanSigs: sigs, ChainLen: chainLen, Deps: depsOf(locLists, selfGen),
			PieceLocs: locLists, Sections: secLists}
		if err := writeMeta(fs, prefix, me, m); err != nil {
			return st, err
		}
		st.Meta = &m
		if len(m.Deps) > 0 {
			ckptDeltaWrites.Inc()
		} else {
			ckptAnchorWrites.Inc()
		}
	}
	// The commit round: every task returns only after the meta is
	// written, so any return means committed (the resize swap relies on it).
	return st, comm.Barrier()
}

// writeSegmentPhase runs checkpoint phase 1: the selected task writes
// the single data segment. No round ends it: the phase is a trace
// marker, and nothing reads the segment before the meta commits.
// segBytes/segCRC are meaningful on rank 0 only. With a tier configured
// the raw payload is also replicated into peer memory; a MemOnly
// generation publishes only there, records the payload CRC (not a
// padded-file CRC) in the meta, and still reports the modeled file size
// so state accounting holds.
func writeSegmentPhase(fs *pfs.System, prefix string, comm *msg.Comm, sg *seg.Segment, co ChainOptions) (segBytes int64, segCRC uint64, err error) {
	fs.BeginPhase(comm.Rank(), "segment")
	if comm.Rank() == 0 {
		payload, err := sg.Encode()
		if err != nil {
			return 0, 0, err
		}
		segBytes = sg.FileSize(len(payload))
		if co.Tier != nil {
			// The segment is shared state every rank decodes at restore,
			// so it is broadcast into every node's store at write time —
			// charged as network here — rather than replicated k+1 ways
			// and re-pulled by the non-holder ranks on every restore.
			hs := make([]int, comm.Size())
			for r := range hs {
				hs[r] = holderNode(co.Holders, comm.Size(), r)
			}
			publish(fs, co, 0, hs[0], hs, prefix, "", segIndex, payload, crcOf(payload))
		}
		if co.MemOnly {
			segCRC = crcOf(payload)
		} else if segCRC, err = writeSegmentFile(fs, segFile(prefix), comm.Rank(), payload, segBytes); err != nil {
			return 0, 0, err
		}
	}
	return segBytes, segCRC, nil
}

// locCollector accumulates one task's piece locations for one array
// during a chained write: its hook records each handled piece's logical
// checksum, and its encode callback compresses written pieces and
// appends them to this task's piece file. Encode output is double
// buffered — the stream keeps at most one write in flight, so a buffer
// is reusable two encodes later.
type locCollector struct {
	fs     *pfs.System
	co     ChainOptions // tier, replica count, rank->node map, residency
	prefix string       // generation prefix (piece file and tier key)
	arr    string       // array name (piece file and tier key)
	gen    int
	task   int // this writer's rank, selecting its piece file
	size   int // communicator size
	id     codec.ID

	holders []int // writer-anchored holder set (fallback placement)
	owners  []int // per-piece majority owners (stream.PieceOwners)

	locs []PieceLoc
	last PieceSum // logical identity of the piece most recently hooked
	file string   // this task's piece file, named and truncated at its first write
	off  int64    // append cursor in it
	enc  [2][]byte
	flip int
}

// hook computes the logical CRC of every handled piece (written or
// skipped) — the one CRC pass both the skip decision and the location
// record share.
func (c *locCollector) hook(idx int, off int64, data []byte) {
	c.last = PieceSum{Index: idx, Off: off, CRC: crcOf(data), Bytes: int64(len(data))}
}

// encode is the stream's EncodePiece stage: choose the stored form,
// compress if it pays, and place the piece at the file append cursor.
// It runs while the previous piece's file write is still in flight.
func (c *locCollector) encode(idx int, off int64, data []byte) (stream.Encoded, error) {
	// Replicate the raw logical bytes into peer memory first — the
	// publish overlaps the in-flight file write exactly like the codec
	// below does, extending the pipeline's encode stage. Write-through
	// generations publish too: their tier copies are the hot cache the
	// restore path prefers over a pfs reread. Placement anchors at the
	// piece's majority owner.
	if c.co.Tier != nil {
		hs := c.holders
		if idx < len(c.owners) {
			hs = tierHolders(c.co, c.size, c.owners[idx])
		}
		publish(c.fs, c.co, c.task, holderNode(c.co.Holders, c.size, c.task), hs, c.prefix, c.arr, idx, data, c.last.CRC)
	}
	if c.co.MemOnly {
		// Diskless piece: the tier holds the only copies. The location
		// records the logical form (raw codec, logical CRC and length)
		// so tiling, dependency, and checksum machinery work unchanged.
		c.locs = append(c.locs, PieceLoc{PieceSum: c.last, Gen: c.gen,
			Task: c.task, FileBytes: c.last.Bytes, Codec: uint8(codec.Raw),
			StoredCRC: c.last.CRC, Where: TierMem})
		return stream.Encoded{Skip: true}, nil
	}
	loc := PieceLoc{PieceSum: c.last, Gen: c.gen, Task: c.task, FileOff: c.off}
	id, out := c.id, data
	if id == codec.Flate {
		t0 := time.Now()
		enc, err := codec.Encode(codec.Flate, c.enc[c.flip], data)
		if err != nil {
			return stream.Encoded{}, fmt.Errorf("ckpt: encoding piece %d: %w", idx, err)
		}
		ckptCodecSeconds.ObserveSince(t0)
		ckptCodecInBytes.Add(uint64(len(data)))
		ckptCodecOutBytes.Add(uint64(len(enc)))
		if len(enc) < len(data) {
			c.enc[c.flip] = enc
			c.flip = 1 - c.flip
			out = enc
		} else {
			id = codec.Raw // incompressible piece: store verbatim
		}
	}
	loc.Codec = uint8(id)
	loc.FileBytes = int64(len(out))
	if id == codec.Raw {
		loc.StoredCRC = loc.CRC // stored form == logical form
	} else {
		loc.StoredCRC = crcOf(out)
	}
	if c.file == "" {
		// Truncate lazily on first write: a reused (non-rotated) prefix
		// may hold a longer piece file from an earlier checkpoint.
		c.file = PieceFile(c.prefix, c.arr, c.task)
		c.fs.Create(c.file)
	}
	c.off += loc.FileBytes
	c.locs = append(c.locs, loc)
	return stream.Encoded{Data: out, File: c.file, Off: loc.FileOff}, nil
}

// decideDelta is a delta's decision round (decideAtRoot): rank 0 alone
// loads the base, diffs every task's fingerprints of each array a delta
// can cover against it, adds the demotions, and every task gets each
// array's piece filter. Rank 0 also returns the base (nil: none) and the
// fingerprints, sorted by piece then task: the metadata's Sections.
func decideDelta(fs *pfs.System, comm *msg.Comm, base string, arrays []ArrayRef, sigs []string, sums [][]stream.SectionSum, filters [][]int, co ChainOptions) (prev *Meta, all [][]stream.SectionSum, err error) {
	frame, _ := locSumsFrames(false, nil, make([][]PieceLoc, len(arrays)), sums)
	payload, err := decideAtRoot(comm, frame, func(parts [][]byte) ([]byte, error) {
		_, sums, err := mergeLocSums(parts, len(arrays))
		if err != nil {
			return nil, err
		}
		all, prev = sums, deltaBase(fs, base, co, comm.Size(), len(arrays))
		for i, a := range arrays {
			// Plan-signature equality guarantees both generations use the
			// identical piece decomposition and offsets, so per-piece
			// diffing across them is sound.
			if prev == nil || prev.Arrays[i].Name != a.Name() || len(prev.PlanSigs) <= i ||
				prev.PlanSigs[i] != sigs[i] || len(prev.Sections) <= i {
				continue
			}
			dirty := dirtyPieces(prev.Sections[i], all[i])
			if !co.MemOnly {
				// A write-through generation must be a complete pfs
				// fallback: a carried-forward location still pointing into
				// a memory-only generation is force-dirtied so its bytes
				// land on disk now (demotion).
				for _, l := range prev.PieceLocs[i] {
					if l.Where == TierMem {
						dirty = append(dirty, l.Index)
					}
				}
			}
			slices.Sort(dirty)
			filters[i] = slices.Compact(dirty)
		}
		return pieceFilters(false, nil, filters)
	})
	if err == nil {
		if _, err = pieceFilters(true, payload, filters); err != nil {
			err = fmt.Errorf("ckpt: decoding the delta decision: %w", err)
		}
	}
	return prev, all, err
}

// deltaBase is co.Prev's metadata — co.PrevMeta, or one read — or nil
// when it is no usable base: another rotation, mode, task or array count.
func deltaBase(fs *pfs.System, base string, co ChainOptions, tasks, nArrays int) (m *Meta) {
	if pb, _, ok := GenOf(co.Prev); ok && pb == base {
		if m = co.PrevMeta; m == nil {
			if read, err := ReadMeta(fs, co.Prev, 0); err == nil {
				m = &read
			}
		}
	}
	if m == nil || m.Mode != ModeDRMS || m.Tasks != tasks || len(m.PieceLocs) != nArrays {
		return nil
	}
	return m
}

// dirtyPieces lists, non-nil, unordered and with repeats, the pieces of
// one array some task's contribution to which changed content or extent,
// appeared or disappeared: the pieces whose stream bytes may differ.
func dirtyPieces(prev, cur []stream.SectionSum) []int {
	type key struct{ piece, task int }
	old := make(map[key]stream.SectionSum, len(prev))
	for _, s := range prev {
		old[key{s.Piece, s.Task}] = s
	}
	dirty := []int{}
	for _, s := range cur {
		k := key{s.Piece, s.Task}
		if p, ok := old[k]; !ok || p.Bytes != s.Bytes || p.CRC != s.CRC {
			dirty = append(dirty, s.Piece)
		}
		delete(old, k)
	}
	for k := range old {
		dirty = append(dirty, k.piece)
	}
	return dirty
}

// pieceFilters frames a delta decision: per array, stream.Options.Pieces
// — nil for every piece — as a flag, set for nil, and otherwise the list
// of ascending indices. It encodes, or with dec decodes b into filters.
func pieceFilters(dec bool, b []byte, filters [][]int) ([]byte, error) {
	c := &frame.Codec{Dec: dec, B: b}
	for i := range filters {
		every := filters[i] == nil
		if c.Flags(&every); !every {
			if frame.List(c, &filters[i], func(p *int) { frame.Varint(c, p) }); filters[i] == nil {
				filters[i] = []int{}
			}
		}
		for j, p := range filters[i] {
			if dec && (p < 0 || j > 0 && p <= filters[i][j-1]) {
				c.Fail("array %d piece filter not ascending at %d", i, j)
			}
		}
	}
	return c.End()
}

// gatherLocSums gathers every task's piece locations and fingerprints of
// every array at rank 0 and returns them there (mergeLocSums).
func gatherLocSums(comm *msg.Comm, locs [][]PieceLoc, sums [][]stream.SectionSum) ([][]PieceLoc, [][]stream.SectionSum, error) {
	frame, _ := locSumsFrames(false, nil, locs, sums)
	parts, err := comm.Gather(0, frame)
	if err != nil || comm.Rank() != 0 {
		return nil, nil, err
	}
	return mergeLocSums(parts, len(locs))
}

// mergeLocSums decodes every task's frame of n arrays: per array, the
// locations sorted by piece, the fingerprints by piece then task.
func mergeLocSums(parts [][]byte, n int) ([][]PieceLoc, [][]stream.SectionSum, error) {
	allLocs, allSums := make([][]PieceLoc, n), make([][]stream.SectionSum, n)
	for _, part := range parts {
		if _, err := locSumsFrames(true, part, allLocs, allSums); err != nil {
			return nil, nil, fmt.Errorf("ckpt: gathering piece locations: %w", err)
		}
	}
	for i := range allLocs {
		slices.SortFunc(allLocs[i], func(a, b PieceLoc) int { return cmp.Compare(a.Index, b.Index) })
		slices.SortFunc(allSums[i], func(a, b stream.SectionSum) int {
			return cmp.Or(cmp.Compare(a.Piece, b.Piece), cmp.Compare(a.Task, b.Task))
		})
	}
	return allLocs, allSums, nil
}

// locSumsFrames frames a task's part of a checkpoint's gathers: per
// array, its location list, then its fingerprint list, as the metadata
// stores them. It encodes the lists, or with dec appends b's records to
// them.
func locSumsFrames(dec bool, b []byte, locs [][]PieceLoc, sums [][]stream.SectionSum) ([]byte, error) {
	c := &frame.Codec{Dec: dec, B: b}
	for i := range locs {
		l, s := locs[i], sums[i]
		pieceLocs(c, &l)
		if sectionSums(c, &s); dec {
			locs[i], sums[i] = append(locs[i], l...), append(sums[i], s...)
		}
	}
	return c.End()
}

// combineLocs folds the locations' logical piece CRCs into the whole-
// stream CRC (combinePieces).
func combineLocs(locs []PieceLoc) uint64 {
	ps := make([]PieceSum, len(locs))
	for i, l := range locs {
		ps[i] = l.PieceSum
	}
	return combinePieces(ps)
}

// depsOf extracts the sorted set of foreign generation numbers the
// location lists reference — the checkpoint's chain dependencies.
func depsOf(locLists [][]PieceLoc, selfGen int) []int {
	seen := map[int]bool{}
	for _, locs := range locLists {
		for _, l := range locs {
			if l.Gen != selfGen && l.Gen >= 0 {
				seen[l.Gen] = true
			}
		}
	}
	if len(seen) == 0 {
		return nil
	}
	deps := make([]int, 0, len(seen))
	for g := range seen {
		deps = append(deps, g)
	}
	sort.Ints(deps)
	return deps
}

// codecProbe counts codec-policy decisions, to periodically re-explore
// flate so the model's throughput and ratio estimates stay current.
var codecProbe atomic.Uint64

// chooseCodec implements the bytes-saved-per-second model for CodecAuto.
// Compressing a piece pays when the storage write time it saves exceeds
// the time spent compressing:
//
//	savedBytes/writeBW > inputBytes/flateBW  ⇔  (1-ratio)·flateBW > writeBW
//
// Both rates come from this process's own observations: storage
// bandwidth from the stream layer's piece-write service times, flate
// ratio and throughput from the checkpoint layer's codec metrics. Until
// enough encoded bytes exist — and periodically thereafter — the model
// explores (returns Flate) so its estimates are grounded in, and track,
// real measurements.
func chooseCodec(mode CodecMode) codec.ID {
	switch mode {
	case CodecRaw:
		return codec.Raw
	case CodecFlate:
		return codec.Flate
	}
	if codecProbe.Add(1)%64 == 0 {
		return codec.Flate
	}
	in := float64(ckptCodecInBytes.Value())
	if in < 4<<20 {
		return codec.Flate
	}
	encSec := ckptCodecSeconds.Sum()
	writeBW, ok := stream.WriteBandwidth()
	if encSec <= 0 || !ok {
		return codec.Flate
	}
	ratio := float64(ckptCodecOutBytes.Value()) / in
	flateBW := in / encSec
	if (1-ratio)*flateBW > writeBW {
		return codec.Flate
	}
	return codec.Raw
}

// pieceFetcher serves arbitrary logical stream extents of one array
// from a chained checkpoint's stored pieces. A restore may replan the
// stream with a different task count, so requested extents need not
// align with stored piece boundaries: raw pieces are served by direct
// sub-range file reads; compressed pieces are decoded whole — straight
// into the destination on an exact match, via a small decoded cache for
// straddling reads. Safe for concurrent use (Read prefetches).
type pieceFetcher struct {
	fs       *pfs.System
	client   int
	selfNode int // this reader's tier store id (replica locality)
	base     string
	self     string
	selfGen  int
	arr      string
	locs     []PieceLoc // sorted by stream offset
	held     []heldCopy // aligned with locs: each location's tier copy, looked up once
	needed   []int      // a subset's ascending piece filter; nil: every piece

	memBytes atomic.Int64 // logical bytes served from peer memory
	pfsBytes atomic.Int64 // logical bytes served from pfs piece files

	mu    sync.Mutex
	cache map[int][]byte // piece index -> decoded bytes
	order []int          // FIFO eviction
}

// fetcherCacheSize bounds the decoded-piece cache: straddling reads walk
// the stream in order, so a piece is re-read only by its immediate
// neighbors' extents — a few entries suffice.
const fetcherCacheSize = 4

// heldCopy is one location's CRC-valid tier replica as a restore found
// it; ok=false when the tier held none or the restore does not read it.
type heldCopy struct {
	data      []byte // shared with the tier, read-only
	local, ok bool
}

// newPieceFetcher serves the array's locs, looking up the tier copy of
// each one the restore reads — every location, or the pieces in needed —
// once. Published payloads are immutable, so a replica found here serves
// every later fetch of it, whatever the stores do meanwhile; checkRead
// still judges the bytes.
func newPieceFetcher(fs *pfs.System, tier *MemTier, prefix, arr string, locs []PieceLoc, needed []int, client, selfNode int) *pieceFetcher {
	base, selfGen := genBase(prefix)
	sorted := append([]PieceLoc(nil), locs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	f := &pieceFetcher{fs: fs, client: client, selfNode: selfNode, base: base,
		self: prefix, selfGen: selfGen, arr: arr, locs: sorted,
		held: make([]heldCopy, len(sorted)), needed: needed, cache: map[int][]byte{}}
	for i, l := range sorted {
		if _, read := slices.BinarySearch(needed, l.Index); needed == nil || read {
			h := &f.held[i]
			h.data, h.local, h.ok = tier.Lookup(selfNode, locPrefix(base, prefix, selfGen, l), arr, l.Index, l.CRC)
		}
	}
	return f
}

// allResident reports whether every stored piece of this array has a
// CRC-valid replica in the tier — the precondition for the coarse
// owner-aligned read plan that restores without touching the pfs or the
// redistribution exchange.
func (f *pieceFetcher) allResident() bool {
	return !slices.ContainsFunc(f.held, func(h heldCopy) bool { return !h.ok })
}

func (f *pieceFetcher) fileOf(l PieceLoc) string {
	return locPieceFile(f.base, f.self, f.selfGen, f.arr, l)
}

// fetch fills dst with the stream bytes [off, off+len(dst)). A location's
// tier copy serves any sub-extent of it first — disk-resident pieces have
// tier copies too when they were written under a tier (hot cache). A
// memory-only location with no surviving replica is an integrity error
// (the caller falls back to an older, disk-resident generation); a
// disk-resident location just falls through to the pfs read.
func (f *pieceFetcher) fetch(_ int, off int64, dst []byte) error {
	pos, end := off, off+int64(len(dst))
	i := sort.Search(len(f.locs), func(i int) bool { return f.locs[i].Off+f.locs[i].Bytes > pos })
	for pos < end {
		if i >= len(f.locs) || f.locs[i].Off > pos {
			return fmt.Errorf("ckpt: array %q has no stored piece covering stream offset %d", f.arr, pos)
		}
		l := f.locs[i]
		lo := pos - l.Off
		n := min(end, l.Off+l.Bytes) - pos
		out := dst[pos-off : pos-off+n]
		if h := f.held[i]; h.ok {
			copy(out, h.data[lo:lo+n])
			f.memBytes.Add(n)
			if !h.local {
				// The replica lives in a peer node's memory: the bytes
				// cross the interconnect, and the trace charges them.
				f.fs.RecordNet(f.client, n)
			}
			pos += n
			i++
			continue
		}
		if l.Where == TierMem {
			tierLostPieces.Inc()
			return corrupt(f.self, f.fileOf(l), l.Index,
				"memory-resident piece of %q has no surviving replica", f.arr)
		}
		switch {
		case codec.ID(l.Codec) == codec.Raw:
			if err := f.fs.ReadAt(f.client, f.fileOf(l), out, l.FileOff+lo); err != nil {
				return fmt.Errorf("ckpt: reading piece %d of %q: %w", l.Index, f.arr, err)
			}
		case lo == 0 && n == l.Bytes:
			// Exact-piece request: decode straight into the destination.
			if err := f.decodeInto(l, out); err != nil {
				return err
			}
		default:
			dec, err := f.decoded(l)
			if err != nil {
				return err
			}
			copy(out, dec[lo:lo+n])
		}
		f.pfsBytes.Add(n)
		pos += n
		i++
	}
	return nil
}

// decodeInto reads and decodes one stored piece into dst (len == Bytes).
func (f *pieceFetcher) decodeInto(l PieceLoc, dst []byte) error {
	stored := borrowStored(l.FileBytes)
	defer recycleStored(stored)
	if err := f.fs.ReadAt(f.client, f.fileOf(l), stored, l.FileOff); err != nil {
		return fmt.Errorf("ckpt: reading piece %d of %q: %w", l.Index, f.arr, err)
	}
	if err := codec.Decode(codec.ID(l.Codec), dst, stored); err != nil {
		return fmt.Errorf("ckpt: piece %d of %q: %w", l.Index, f.arr, err)
	}
	return nil
}

// decoded returns one piece's decoded bytes through the cache.
func (f *pieceFetcher) decoded(l PieceLoc) ([]byte, error) {
	f.mu.Lock()
	if b, ok := f.cache[l.Index]; ok {
		f.mu.Unlock()
		return b, nil
	}
	f.mu.Unlock()
	out := make([]byte, l.Bytes)
	if err := f.decodeInto(l, out); err != nil {
		return nil, err
	}
	f.mu.Lock()
	if _, ok := f.cache[l.Index]; !ok {
		f.cache[l.Index] = out
		f.order = append(f.order, l.Index)
		if len(f.order) > fetcherCacheSize {
			delete(f.cache, f.order[0])
			f.order = f.order[1:]
		}
	}
	f.mu.Unlock()
	return out, nil
}

// storedPool recycles the read buffers the fetcher, the verifier, the
// segment reader and squash stream stored bytes through, each sized by
// the read it serves.
var storedPool = sync.Pool{New: func() any { b := []byte(nil); return &b }}

func borrowStored(n int64) []byte {
	p := storedPool.Get().(*[]byte)
	if int64(cap(*p)) < n {
		*p = make([]byte, n)
	}
	return (*p)[:n]
}

func recycleStored(b []byte) {
	b = b[:cap(b)]
	storedPool.Put(&b)
}

// verifyChained checks every stored piece extent of a chained
// checkpoint — including extents referenced in earlier generations — so
// a broken chain (a corrupt, truncated, or quarantined dependency)
// fails verification of every generation built on it. For each piece:
// the stored bytes must match StoredCRC, compressed pieces must decode
// to exactly their logical length and CRC, and the pieces together must
// tile the array's stream; a stored extent is checked against its file's
// size before anything is read into memory for it, so a lying record
// costs no allocation. Memory-resident pieces verify against the
// tier instead: at least one CRC-valid replica must survive. With a nil
// tier every memory-resident piece is unverifiable — exactly right for
// a restart that lost all peer memory: the generation quarantines and
// resolution falls back to the newest disk-resident one.
func verifyChained(fs *pfs.System, tier *MemTier, prefix string, m *Meta, client int) error {
	base, selfGen := genBase(prefix)
	var logical []byte
	for i, am := range m.Arrays {
		locs := append([]PieceLoc(nil), m.PieceLocs[i]...)
		sort.Slice(locs, func(a, b int) bool { return locs[a].Off < locs[b].Off })
		var next int64
		for _, l := range locs {
			name := locPieceFile(base, prefix, selfGen, am.Name, l)
			if l.Off != next {
				return corrupt(prefix, name, l.Index, "array %q pieces leave a gap at stream offset %d", am.Name, next)
			}
			next = l.Off + l.Bytes
			if l.Where == TierMem {
				if _, _, ok := tier.Lookup(-1, locPrefix(base, prefix, selfGen, l), am.Name, l.Index, l.CRC); !ok {
					return corrupt(prefix, name, l.Index,
						"memory-resident piece of %q has no surviving replica", am.Name)
				}
				continue
			}
			if sz, err := fs.Size(name); err != nil || l.FileBytes > sz-l.FileOff {
				return corrupt(prefix, name, l.Index, "stored piece [%d,+%d) unreadable (broken chain?): size %d, %v",
					l.FileOff, l.FileBytes, sz, err)
			}
			stored := borrowStored(l.FileBytes)
			if err := fs.ReadAt(client, name, stored, l.FileOff); err != nil {
				recycleStored(stored)
				return corrupt(prefix, name, l.Index, "stored piece unreadable: %v", err)
			}
			if crcOf(stored) != l.StoredCRC {
				recycleStored(stored)
				return corrupt(prefix, name, l.Index, "stored piece crc mismatch")
			}
			if codec.ID(l.Codec) != codec.Raw {
				if int64(cap(logical)) < l.Bytes {
					logical = make([]byte, l.Bytes)
				}
				logical = logical[:l.Bytes]
				if err := codec.Decode(codec.ID(l.Codec), logical, stored); err != nil {
					recycleStored(stored)
					return corrupt(prefix, name, l.Index, "stored piece does not decode: %v", err)
				}
				if crcOf(logical) != l.CRC {
					recycleStored(stored)
					return corrupt(prefix, name, l.Index, "decoded piece crc mismatch")
				}
			}
			recycleStored(stored)
		}
		if next != am.Bytes {
			return corrupt(prefix, arrFile(prefix, am.Name), -1,
				"array %q pieces cover %d of %d stream bytes", am.Name, next, am.Bytes)
		}
		if combineLocs(locs) != m.ArrayCRC[i] {
			return corrupt(prefix, arrFile(prefix, am.Name), -1, "array %q combined stream crc mismatch", am.Name)
		}
	}
	return nil
}

// Squash folds the newest committed generation's chain into a fresh,
// self-contained anchor generation: every referenced stored extent is
// copied verbatim (codec preserved, no re-encode) into the new
// generation's own piece files, and the new metadata carries no
// dependencies. The old chain becomes prunable. Returns the new
// anchor's prefix; squashed=false (nil error) when the newest
// generation is already self-contained. Offline, single-client —
// drmsfsck's repair path, not a collective.
func Squash(fs *pfs.System, base string, client int) (prefix string, squashed bool, err error) {
	rot := NewRotationView(Rotation{Base: base})
	_, cur, ok := rot.Latest(fs)
	if !ok {
		return "", false, fmt.Errorf("ckpt: no committed generation under %q", base)
	}
	m, err := ReadMeta(fs, cur, client)
	if err != nil {
		return "", false, err
	}
	if len(m.Deps) == 0 || len(m.PieceLocs) == 0 { // an anchor, or a legacy StateStore delta (drmsfsck -repair folds those)
		return cur, false, nil
	}
	if m.SegWhere == TierMem {
		return "", false, fmt.Errorf("ckpt: %s is memory-resident; demote it to disk before squashing", cur)
	}
	for i := range m.PieceLocs {
		for _, l := range m.PieceLocs[i] {
			if l.Where == TierMem {
				return "", false, fmt.Errorf("ckpt: %s references memory-resident pieces; demote before squashing", cur)
			}
		}
	}
	_, curGen, _ := GenOf(cur)
	dst := rot.NextPrefix(fs)
	_, dstGen, _ := GenOf(dst)

	if err := copyFile(fs, client, segFile(cur), segFile(dst), m.SegBytes[0]); err != nil {
		return "", false, err
	}
	newLocs := make([][]PieceLoc, len(m.Arrays))
	for i, am := range m.Arrays {
		file := PieceFile(dst, am.Name, 0)
		fs.Create(file)
		var off int64
		locs := append([]PieceLoc(nil), m.PieceLocs[i]...)
		for j, l := range locs {
			src := locPieceFile(base, cur, curGen, am.Name, l)
			if err := copyExtent(fs, client, src, l.FileOff, file, off, l.FileBytes); err != nil {
				return "", false, fmt.Errorf("ckpt: squash: copying piece %d of %q: %w", l.Index, am.Name, err)
			}
			l.Gen, l.Task, l.FileOff = dstGen, 0, off
			off += l.FileBytes
			locs[j] = l
		}
		newLocs[i] = locs
	}
	m.ChainLen, m.Deps, m.PieceLocs = 0, nil, newLocs
	if err := writeMeta(fs, dst, client, m); err != nil {
		return "", false, err
	}
	ckptSquashes.Inc()
	return dst, true, nil
}

// copyFile copies a whole file byte for byte.
func copyFile(fs *pfs.System, client int, src, dst string, size int64) error {
	fs.Create(dst)
	return copyExtent(fs, client, src, 0, dst, 0, size)
}

// copyExtent copies n bytes of src at srcOff to dst at dstOff through a
// pooled window.
func copyExtent(fs *pfs.System, client int, src string, srcOff int64, dst string, dstOff, n int64) error {
	window := borrowStored(min(n, padChunk))
	defer recycleStored(window)
	for done := int64(0); done < n; {
		k := min(n-done, int64(len(window)))
		if err := fs.ReadAt(client, src, window[:k], srcOff+done); err != nil {
			return err
		}
		if err := fs.WriteAt(client, dst, window[:k], dstOff+done); err != nil {
			return err
		}
		done += k
	}
	return nil
}
