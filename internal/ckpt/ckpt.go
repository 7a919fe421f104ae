// Package ckpt is the checkpoint/restart engine. It implements both
// schemes the paper evaluates (§5):
//
//   - DRMS checkpointing: one selected task writes its data segment (the
//     replicated variables, execution context, and modeled padding for
//     the regions whose contents need not survive), then all tasks
//     cooperate to write each distributed array in a
//     distribution-independent representation via parallel array-section
//     streaming. The saved state is independent of the number of tasks,
//     so a restart may use an equal, smaller, or larger task set.
//
//   - SPMD checkpointing (the conventional baseline): every task writes
//     its entire data segment — replicated data, private data, and the
//     storage of its mapped array sections including shadow regions — to
//     its own file. The saved state grows linearly with the task count
//     and a restart must use exactly the task count that checkpointed.
//
// Checkpoint files live on the parallel file system (internal/pfs). A
// checkpoint under prefix P consists of:
//
//	P.meta              metadata (mode, task count, context, array table)
//	P.seg               DRMS: the one saved segment
//	P.arr.<name>.p<i>   DRMS: the pieces of the array's distribution-
//	                    independent stream that task i wrote (chain.go)
//	P.task<i>.seg       SPMD: task i's segment (vars + local sections + pad)
//
// There is one DRMS encoder, WriteDRMSChained. Every record this package
// writes — DRMS, SPMD and StateStore metadata alike — is metadata
// version 3, one specified byte frame (meta.go), and it is the only
// version ReadMeta decodes. Versions 1 and 2 were gob records written by
// earlier versions of this code (version 1 with one stream file
// P.arr.<name> per array); ReadMeta refuses them with ErrLegacyFormat,
// and drmsfsck -repair rewrites such a checkpoint in place.
//
// Different prefixes hold independent checkpoints, so an application can
// keep several states concurrently (§3).
package ckpt

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"drms/internal/crc"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/stream"
)

// Mode distinguishes the two checkpoint schemes.
type Mode string

const (
	ModeDRMS Mode = "drms"
	ModeSPMD Mode = "spmd"
)

// ArrayMeta records one distributed array in the checkpoint metadata.
type ArrayMeta struct {
	Name   string
	Kind   string // element type name
	Global rangeset.Slice
	Bytes  int64 // stream size
}

// Meta is the checkpoint metadata, stored under <prefix>.meta.
type Meta struct {
	Version  int
	Mode     Mode
	Tasks    int // task count at checkpoint time
	Ctx      seg.Context
	Arrays   []ArrayMeta
	SegBytes []int64  // per-task segment file sizes (one entry for DRMS)
	SegCRC   []uint64 // CRC-64/ECMA of each segment file
	// SegWhere is the segment payload's storage tier. TierMem marks a
	// diskless generation: SegCRC[0] is then the CRC of the raw payload
	// (there is no padded file to checksum) and SegBytes[0] the modeled
	// file size. Decodes as TierPFS from older metadata.
	SegWhere uint8
	ArrayCRC []uint64 // CRC-64/ECMA of each array stream, aligned with Arrays
	// PlanSigs holds each array's streaming-plan signature
	// (stream.PlanSig), aligned with Arrays. Two checkpoints with equal
	// signatures used the identical piece decomposition and byte offsets,
	// so the signature is a cheap "did the plan change?" identity test:
	// a delta generation only trusts per-piece diffing against a base
	// whose signature matches, and a partial restore only filters by
	// piece index under it. Empty in an upgraded checkpoint that never
	// recorded one, which simply forces a full write (and the full
	// restart path).
	PlanSigs []string

	// ChainLen is this checkpoint's distance from its chain's anchor:
	// 0 for an anchor (every piece stored under this generation's own
	// prefix), k for the k-th consecutive delta. The run-time system
	// compares it against the configured anchor interval.
	ChainLen int
	// Deps lists the generation numbers whose piece files this
	// checkpoint's locations reference (ascending, excluding its own).
	// Pruning keeps them alive; verification walks into them. Flat by
	// construction: locations are copied verbatim when a piece is
	// carried forward, so a delta's dependencies never require reading
	// intermediate metadata.
	Deps []int
	// PieceLocs holds, per array, where every piece's stored bytes live
	// (aligned with Arrays). The meta is self-contained: resolving any
	// piece costs exactly one piece-file read.
	PieceLocs [][]PieceLoc
	// Sections holds, per array, every task's contribution fingerprint
	// to every piece (stream.SectionSums, sorted by piece then task) —
	// the delta base the NEXT chained generation diffs against to decide
	// which pieces to rewrite without redistributing anything. Empty in
	// a checkpoint written with ChainOptions.NoDeltaBase or upgraded from
	// version 1, which simply forces a full write.
	Sections [][]stream.SectionSum
}

// Stats summarizes a checkpoint or restart operation on this task.
type Stats struct {
	SegmentBytes int64 // segment file bytes this operation covered
	ArrayBytes   int64 // distribution-independent array bytes
	NetBytes     int64 // redistribution traffic sent by this task
	SkippedBytes int64 // array bytes a delta generation carried forward by back-pointer (task 0)
	// StoredBytes is the array bytes this task actually put on storage:
	// after piece elision and compression. Delta back-pointers cost
	// nothing; the segment is always stored raw.
	StoredBytes int64
	// Meta is the committed metadata, set at task 0 of a DRMS write only
	// (nil elsewhere). The commit path caches it so the next delta's
	// base and the next prune — both about what task 0 itself just
	// wrote — need no storage read.
	Meta *Meta
	// TierMemBytes/TierPFSBytes split a restore's logical bytes by the
	// tier that served them (peer memory vs pfs). The restore engine
	// reduces them cluster-wide, so every task reports identical totals
	// and the restore-source classification is collective.
	TierMemBytes int64
	TierPFSBytes int64
}

// Total returns segment plus array bytes.
func (s Stats) Total() int64 { return s.SegmentBytes + s.ArrayBytes }

const (
	padChunk  = 1 << 20 // padding is written/read in 1 MB operations
	segHeader = 8       // payload length prefix
)

func metaFile(prefix string) string { return prefix + ".meta" }
func segFile(prefix string) string  { return prefix + ".seg" }

// arrFile names an array's stream. Its bytes live in piece files
// (pieceFile); the stream name is what the stream layer is handed and
// what integrity errors about the whole stream report.
func arrFile(prefix, name string) string {
	return prefix + ".arr." + name
}

func taskSegFile(prefix string, task int) string {
	return fmt.Sprintf("%s.task%d.seg", prefix, task)
}

// pieceFile names one writer task's piece file of a chained checkpoint:
// the compacted, append-only store of every piece that task wrote for
// the array in that generation.
func PieceFile(prefix, name string, task int) string {
	return fmt.Sprintf("%s.arr.%s.p%d", prefix, name, task)
}

// WriteDRMS takes a reconfigurable checkpoint that stands alone: a raw
// anchor no delta will follow, through the one encoder.
func WriteDRMS(fs *pfs.System, prefix string, comm *msg.Comm, sg *seg.Segment, arrays []ArrayRef, o stream.Options) (Stats, error) {
	return WriteDRMSChained(fs, prefix, comm, sg, arrays, o, ChainOptions{Codec: CodecRaw, NoDeltaBase: true})
}

// chainPieceHooks composes a caller-supplied piece hook with the
// checkpoint layer's CRC collector, so fault-injection tests (and any
// other instrumentation) can observe streaming progress during a
// checkpoint without displacing the integrity machinery.
func chainPieceHooks(user, crc func(int, int64, []byte)) func(int, int64, []byte) {
	if user == nil {
		return crc
	}
	return func(idx int, off int64, data []byte) {
		user(idx, off, data)
		crc(idx, off, data)
	}
}

// RestoreOptions tune a restore beyond the streaming options.
type RestoreOptions struct {
	// Verify makes the restore check every streamed piece's CRC against
	// the checkpoint's per-piece checksums as it reads, returning a typed
	// *CorruptError naming the guilty generation and piece instead of
	// silently loading torn bytes. The whole-stream CRC is always checked
	// regardless; Verify adds attribution (which piece) and catches
	// damage the moment it is read. The recovery supervisor and drmsfsck
	// share this path.
	Verify bool
	// Tier, if non-nil, lets the restore serve pieces and the segment
	// from surviving peers' memory (CRC-checked) instead of rereading
	// pfs — required for memory-only generations, a fast path for
	// disk-resident ones.
	Tier *MemTier
	// Holders maps rank -> tier store (node) id, the same mapping the
	// checkpoint was written with, so replica locality is attributed to
	// nodes rather than task ranks. nil, or a length other than the
	// communicator size, uses ranks directly.
	Holders []int
}

// ReadDRMSOpts restores a DRMS checkpoint into the calling application,
// which may be running with a different number of tasks than took the
// checkpoint. Every task loads the single saved segment (restoring
// replicated variables and context); then each array is loaded according
// to its handle's current distribution. The caller provides handles for
// exactly the arrays in the checkpoint (matched by name); ro selects
// piece-level verification and the memory tier. Returns the metadata;
// delta is Meta.Tasks vs comm.Size(), computed by the caller.
func ReadDRMSOpts(fs *pfs.System, prefix string, comm *msg.Comm, sg *seg.Segment, arrays []ArrayRef, o stream.Options, ro RestoreOptions) (Meta, Stats, error) {
	return restoreDRMS(fs, prefix, comm, sg, arrays, o,
		restorePlan{tier: ro.Tier, holders: ro.Holders, segment: true, verify: ro.Verify})
}

// restorePlan is what distinguishes one DRMS restart shape from another.
// The stream is distribution-independent, so a same-pool restart, a
// smaller or larger pool, an in-flight resize and a localized recovery
// are one load that differs only in whose sections move and who decodes
// the segment; everything else the engine derives from those two facts.
type restorePlan struct {
	tier    *MemTier
	holders []int // rank -> tier store (node) id, as at write time
	// subset restricts the load to the sections the current distribution
	// assigns to ranks (localized recovery: survivors join the
	// collective but request nothing). false loads every rank's sections
	// — a full restart, or a resize under a new distribution.
	subset bool
	ranks  []int
	// segment makes this task load and decode the saved data segment.
	segment bool
	// verify checks every loaded piece against the per-piece checksums.
	// Always set for a subset, whose stream is deliberately not read
	// whole and so has no whole-stream CRC to fall back on.
	verify bool
}

// matchArrays pairs the checkpoint's array table with the application's
// handles by name, in table order, rejecting what no restore can serve:
// a non-DRMS checkpoint, a missing or extra array, a changed element
// type or global shape. A subset restore filters the writer's piece plan
// by index and never replans, so it additionally needs the
// checkpointing task count and the writer's plan signature under these
// streaming options.
func matchArrays(m *Meta, prefix string, arrays []ArrayRef, tasks int, o stream.Options, subset bool) ([]ArrayRef, error) {
	if m.Mode != ModeDRMS {
		return nil, fmt.Errorf("ckpt: %q is a %s checkpoint; reconfigurable restart requires DRMS mode", prefix, m.Mode)
	}
	if subset && m.Tasks != tasks {
		return nil, fmt.Errorf("ckpt: partial restore of %q needs the checkpointing task count %d, not %d",
			prefix, m.Tasks, tasks)
	}
	byName := make(map[string]ArrayRef, len(arrays))
	for _, a := range arrays {
		byName[a.Name()] = a
	}
	refs := make([]ArrayRef, len(m.Arrays))
	for i, am := range m.Arrays {
		a, ok := byName[am.Name]
		if !ok {
			return nil, fmt.Errorf("ckpt: checkpoint has array %q but no handle was supplied", am.Name)
		}
		delete(byName, am.Name)
		switch {
		case a.Kind() != am.Kind:
			return nil, fmt.Errorf("ckpt: array %q is %s in checkpoint, %s in application", am.Name, am.Kind, a.Kind())
		case !subset && !a.GlobalShape().Equal(am.Global):
			return nil, fmt.Errorf("ckpt: array %q global shape %v differs from checkpointed %v",
				am.Name, a.GlobalShape(), am.Global)
		// The signature names the global shape as well as the piece plan,
		// so for a subset it subsumes the shape test above — which walks
		// the whole index space, per array and per task, and a localized
		// recovery validates twice (PartialEligible, then the engine).
		case subset && (len(m.PlanSigs) <= i || m.PlanSigs[i] != stream.PlanSig(a.GlobalShape(), a.ElemSize(), tasks, o)):
			return nil, fmt.Errorf("ckpt: array %q shape or piece plan changed since the checkpoint; partial restore requires both", am.Name)
		}
		refs[i] = a
	}
	for n := range byName {
		return nil, fmt.Errorf("ckpt: application array %q not present in checkpoint", n)
	}
	return refs, nil
}

// restoreDRMS is the one DRMS restore engine: every restart shape is a
// restorePlan executed here. Collective — every task of the communicator
// calls it with the same plan (segment aside). Stats count the bytes
// actually restored, with the tier split (TierMemBytes/TierPFSBytes)
// reduced cluster-wide.
func restoreDRMS(fs *pfs.System, prefix string, comm *msg.Comm, sg *seg.Segment, arrays []ArrayRef, o stream.Options, p restorePlan) (m Meta, st Stats, err error) {
	me, size := comm.Rank(), comm.Size()
	start := time.Now()
	defer func() { observeRead(me, st, start, err) }()
	fs.BeginPhase(me, "segment") // the trace counts the metadata read with the segment's
	if m, err = ReadMeta(fs, prefix, me); err != nil {
		return m, st, err
	}
	refs, err := matchArrays(&m, prefix, arrays, size, o, p.subset)
	if err != nil {
		return m, st, err
	}
	selfNode := holderNode(p.holders, size, me)

	// The one saved data segment (§2.2), checksum verified in passing —
	// from peer memory when the tier holds it, from the file otherwise.
	// A survivor of a localized recovery has its own in memory and skips
	// the read entirely.
	if p.segment {
		payload, segMem, segPFS, err := readSegment(fs, p.tier, prefix, me, selfNode, &m)
		if err != nil {
			return m, st, err
		}
		st.TierMemBytes += segMem
		st.TierPFSBytes += segPFS
		if err := refuseLegacySegment(prefix, &m, payload); err != nil {
			return m, st, err
		}
		if err := sg.Decode(payload); err != nil {
			return m, st, err
		}
		st.SegmentBytes = m.SegBytes[0]
	}

	// Arrays load under the current (possibly adjusted) distribution; the
	// stream layout is distribution-independent. The array's bytes live in
	// per-writer piece files, possibly compressed and possibly in earlier
	// generations (deltas) — or, tier permitting, in surviving peers'
	// memory. The fetcher maps whatever extents this restore's own piece
	// plan asks for onto the stored pieces.
	fetchers := make([]*pieceFetcher, len(m.Arrays))
	resident := make([]byte, len(m.Arrays)) // per array: 1 where every task holds all of it in the tier
	vote := p.tier != nil && !p.subset
	for i, am := range m.Arrays {
		fetchers[i] = newPieceFetcher(fs, p.tier, prefix, am.Name, m.PieceLocs[i], me, selfNode)
		if vote && fetchers[i].allResident() {
			resident[i] = 1
		}
	}
	// Hot restore plan: an array every task finds wholly in peer memory
	// (stores can drop under a concurrent node loss, so all vote, once for
	// every array; without a tier nobody does) is replanned with one
	// owner-sized piece per rank. Its exchange degenerates to local copies
	// served from each rank's own store, the millisecond path; a changed
	// layout only turns some into network pulls. A subset never replans:
	// its filter addresses the writer's pieces by index.
	if vote {
		n := len(resident)
		resident, err = decideAtRoot(comm, resident, func(votes [][]byte) ([]byte, error) {
			all := votes[0]
			for _, v := range votes {
				if len(v) != n {
					return nil, fmt.Errorf("ckpt: a %d-byte residency vote on %d arrays", len(v), n)
				}
				for i := range all {
					all[i] &= v[i]
				}
			}
			return all, nil
		})
		if err == nil && len(resident) != n {
			err = fmt.Errorf("ckpt: a %d-byte residency verdict on %d arrays", len(resident), n)
		}
		if err != nil {
			return m, st, err
		}
	}
	pieces := make([][]PieceSum, len(m.Arrays))
	for i, am := range m.Arrays {
		a := refs[i]
		fs.BeginPhase(me, "arrays:"+am.Name)
		opts := o
		fetcher := fetchers[i]
		fetchers[i] = nil // its decoded-piece cache goes with this array
		opts.FetchPiece = fetcher.fetch
		// Every task checksums each piece it reads, once; checkRead below
		// judges them all.
		opts.PieceHook = chainPieceHooks(o.PieceHook, func(idx int, off int64, data []byte) {
			pieces[i] = append(pieces[i], PieceSum{Index: idx, Off: off, CRC: crcOf(data), Bytes: int64(len(data))})
		})
		loaded := am.Bytes // matchArrays proved the stream is this long
		if p.subset {
			// Count the restored bytes, not the stream's nominal size: the
			// whole point is that only the needed pieces moved.
			opts.Pieces, loaded = neededPieces(a, size, p.ranks, o, am.Bytes)
		}
		if elems := a.GlobalShape().Size(); resident[i] == 1 && elems > 0 && am.Bytes%int64(elems) == 0 {
			opts.PieceBytes = (elems + size - 1) / size * int(am.Bytes/int64(elems))
		}
		s, err := a.StreamRead(fs, arrFile(prefix, am.Name), opts)
		if err != nil {
			return m, st, fmt.Errorf("ckpt: loading array %q: %w", am.Name, err)
		}
		st.ArrayBytes += loaded
		st.NetBytes += s.NetBytes
		st.TierMemBytes += fetcher.memBytes.Load()
		st.TierPFSBytes += fetcher.pfsBytes.Load()
	}
	// One round judges every array and sums the per-rank tier counters,
	// so the restore-source classification (observeRead's tier counter,
	// the supervisor's last-restore-source gauge) is the same on every
	// task; it is also the restore's closing synchronization. A subset,
	// deliberately not read whole, has no stream CRC to check.
	tot, err := checkRead(comm, prefix, &m, pieces, [2]int64{st.TierMemBytes, st.TierPFSBytes}, p.verify, !p.subset)
	if err != nil {
		return m, st, err
	}
	st.TierMemBytes, st.TierPFSBytes = tot[0], tot[1]
	return m, st, nil
}

// readSegment loads the one saved segment payload of a DRMS restore,
// returning how many logical bytes each tier served. A memory-only
// generation must come from peer memory (its payload CRC is in the
// meta); a disk generation prefers a self-consistent tier copy — but
// only after reconstructing the padded file's CRC from the payload
// alone (header CRC + payload CRC + zero-run CRC, all combinable) and
// matching it against the metadata — and falls back to the full padded
// pfs reread.
func readSegment(fs *pfs.System, tier *MemTier, prefix string, client, selfNode int, m *Meta) (payload []byte, memBytes, pfsBytes int64, err error) {
	want := m.SegCRC[0]
	if m.SegWhere == TierMem {
		data, local, ok := tier.LookupPrefer(selfNode, prefix, "", segIndex, want)
		if !ok {
			tierLostPieces.Inc()
			return nil, 0, 0, corrupt(prefix, segFile(prefix), -1,
				"memory-resident segment has no surviving replica")
		}
		if !local {
			fs.RecordNet(client, int64(len(data)))
		}
		return data, int64(len(data)), 0, nil
	}
	if tier != nil {
		if data, local, ok := tier.LookupSelf(selfNode, prefix, "", segIndex); ok {
			hdr := make([]byte, segHeader)
			binary.LittleEndian.PutUint64(hdr, uint64(len(data)))
			sum := crc.Combine(crcOf(hdr), crcOf(data), int64(len(data)))
			pad := m.SegBytes[0] - segHeader - int64(len(data))
			if pad >= 0 && crc.Combine(sum, crc.Zeros(pad), pad) == want {
				if !local {
					fs.RecordNet(client, int64(len(data)))
				}
				return data, int64(len(data)), 0, nil
			}
		}
	}
	payload, segCRC, err := readSegmentFile(fs, prefix, segFile(prefix), client, m.SegBytes[0])
	if err != nil {
		return nil, 0, 0, err
	}
	if segCRC != want {
		return nil, 0, 0, corrupt(prefix, segFile(prefix), -1,
			"segment crc %016x, metadata %016x", segCRC, want)
	}
	return payload, 0, m.SegBytes[0], nil
}

// WriteSPMD takes a conventional checkpoint: every task writes its entire
// data segment — variables, context, and the raw storage of its local
// array sections — to its own file. Collective.
func WriteSPMD(fs *pfs.System, prefix string, comm *msg.Comm, sg *seg.Segment, arrays []ArrayRef, o stream.Options) (st Stats, err error) {
	me := comm.Rank()
	start := time.Now()
	defer func() { observeWrite(me, st, start, err) }()
	sg.Ctx.Tasks = comm.Size()

	fs.BeginPhase(me, "segment")
	blob, err := sg.Encode()
	if err != nil {
		return st, err
	}
	for _, a := range arrays {
		blob = a.AppendLocalBytes(blob)
	}
	total := sg.FileSize(len(blob))
	crc, err := writeSegmentFile(fs, taskSegFile(prefix, me), me, blob, total)
	if err != nil {
		return st, err
	}
	st.SegmentBytes = total
	if err := comm.Barrier(); err != nil { // "each task writes independently, and they all synchronize at the end" (§5)
		return st, err
	}

	record := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, uint64(total)), crc)
	records, err := comm.Gather(0, record)
	if err != nil {
		return st, err
	}
	if me == 0 {
		fs.BeginPhase(me, "meta")
		m := Meta{Version: metaVersion, Mode: ModeSPMD, Tasks: comm.Size(), Ctx: sg.Ctx}
		for _, b := range records {
			m.SegBytes = append(m.SegBytes, bytesI64(b[:8]))
			m.SegCRC = append(m.SegCRC, uint64(bytesI64(b[8:])))
		}
		for _, a := range arrays {
			m.Arrays = append(m.Arrays, ArrayMeta{Name: a.Name(), Kind: a.Kind(),
				Global: a.GlobalShape(), Bytes: int64(a.MappedElems() * a.ElemSize())})
		}
		if err := writeMeta(fs, prefix, me, m); err != nil {
			return st, err
		}
	}
	if err := comm.Barrier(); err != nil {
		return st, err
	}
	return st, nil
}

// ReadSPMD restores a conventional checkpoint. The task count must equal
// the checkpointing task count — SPMD checkpoints are not reconfigurable.
func ReadSPMD(fs *pfs.System, prefix string, comm *msg.Comm, sg *seg.Segment, arrays []ArrayRef, o stream.Options) (m Meta, st Stats, err error) {
	me := comm.Rank()
	start := time.Now()
	defer func() { observeRead(me, st, start, err) }()
	fs.BeginPhase(me, "segment") // the trace counts the metadata read with the segment's
	m, err = ReadMeta(fs, prefix, me)
	if err != nil {
		return m, st, err
	}
	if m.Mode != ModeSPMD {
		return m, st, fmt.Errorf("ckpt: %q is a %s checkpoint, not SPMD", prefix, m.Mode)
	}
	if m.Tasks != comm.Size() {
		return m, st, fmt.Errorf("ckpt: SPMD checkpoint taken with %d tasks cannot restart on %d (not reconfigurable)",
			m.Tasks, comm.Size())
	}

	blob, crc, err := readSegmentFile(fs, prefix, taskSegFile(prefix, me), me, m.SegBytes[me])
	if err != nil {
		return m, st, err
	}
	if crc != m.SegCRC[me] {
		return m, st, fmt.Errorf("ckpt: task %d segment of %q fails integrity check", me, prefix)
	}
	if err := refuseLegacySegment(prefix, &m, blob); err != nil {
		return m, st, err
	}
	st.SegmentBytes = m.SegBytes[me]

	// The blob is vars-payload followed by each array's local bytes; the
	// local sizes come from the handles, whose distributions must match
	// the checkpointing run (enforced by the equal task count plus the
	// deterministic SPMD construction of distributions).
	varsLen := int64(len(blob)) - LocalSectionBytes(arrays)
	if varsLen < 0 {
		return m, st, fmt.Errorf("ckpt: task %d segment too small for local sections", me)
	}
	if err := sg.Decode(blob[:varsLen]); err != nil {
		return m, st, err
	}
	off := varsLen
	for _, a := range arrays {
		n := int64(a.MappedElems() * a.ElemSize())
		if err := a.SetLocalBytes(blob[off : off+n]); err != nil {
			return m, st, fmt.Errorf("ckpt: restoring local section of %q: %w", a.Name(), err)
		}
		off += n
	}
	if err := comm.Barrier(); err != nil {
		return m, st, err
	}
	return m, st, nil
}

// Exists reports whether a committed checkpoint is reachable from the
// prefix: either the prefix itself or, when the run-time system rotates
// generations under it, the newest committed generation.
func Exists(fs *pfs.System, prefix string) bool {
	_, ok := Resolve(fs, prefix)
	return ok
}

// existsDirect reports whether the prefix itself holds a committed
// checkpoint (its meta file — the commit record — is present).
func existsDirect(fs *pfs.System, prefix string) bool {
	return fs.Exists(metaFile(prefix))
}

// Resolve maps a user-facing checkpoint prefix to the prefix that holds
// the committed state to read: the prefix itself when its meta file
// exists, otherwise the newest committed generation of a rotation rooted
// at it ("<prefix>.gN"). ok=false when neither exists; the prefix is then
// returned unchanged so error paths can still name it.
func Resolve(fs *pfs.System, prefix string) (string, bool) {
	if existsDirect(fs, prefix) {
		return prefix, true
	}
	if _, p, ok := (Rotation{Base: prefix}).Latest(fs); ok {
		return p, true
	}
	return prefix, false
}

// Remove deletes every file of the checkpoint under the prefix.
func Remove(fs *pfs.System, prefix string) {
	for _, f := range fs.List(prefix + ".") {
		fs.Remove(f)
	}
}

// StateBytes returns the total size of the saved state under a prefix:
// every file that constitutes the checkpoint (Table 3's measure).
func StateBytes(fs *pfs.System, prefix string) int64 {
	var n int64
	for _, f := range fs.List(prefix + ".") {
		sz, err := fs.Size(f)
		if err == nil {
			n += sz
		}
	}
	return n
}

// writeSegmentFile lays out a segment file: an 8-byte payload length,
// the payload, and zero padding up to total (the modeled segment size —
// a real implementation dumps the whole image, so the file must be that
// large for size and timing measurements to be honest). Returns the
// CRC-64 of the whole file, computed as it is written.
func writeSegmentFile(fs *pfs.System, name string, client int, payload []byte, total int64) (uint64, error) {
	fs.Create(name)
	hdr := make([]byte, segHeader)
	binary.LittleEndian.PutUint64(hdr, uint64(len(payload)))
	if err := fs.WriteAt(client, name, hdr, 0); err != nil {
		return 0, err
	}
	if err := fs.WriteAt(client, name, payload, segHeader); err != nil {
		return 0, err
	}
	sum := crc.Combine(crcOf(hdr), crcOf(payload), int64(len(payload)))
	pad := total - segHeader - int64(len(payload))
	sum = crc.Combine(sum, crc.Zeros(pad), pad)
	for off := segHeader + int64(len(payload)); pad > 0; {
		n := min(pad, padChunk)
		if err := fs.WriteAt(client, name, zeroPad()[:n], off); err != nil {
			return 0, err
		}
		off += n
		pad -= n
	}
	return sum, nil
}

// readSegmentFile reads an entire segment file of the checkpoint under
// prefix (payload and padding — the real system reads the full image) and
// returns the payload and the file's CRC-64. A length prefix that does not
// fit the file is a *CorruptError.
func readSegmentFile(fs *pfs.System, prefix, name string, client int, total int64) ([]byte, uint64, error) {
	hdr := make([]byte, segHeader)
	if err := fs.ReadAt(client, name, hdr, 0); err != nil {
		return nil, 0, err
	}
	plen := int64(binary.LittleEndian.Uint64(hdr))
	sz, err := fs.Size(name)
	if err != nil {
		return nil, 0, err
	}
	// Subtract, never add: a prefix near MaxInt64 overflows plen+segHeader.
	if plen < 0 || total < segHeader || plen > total-segHeader || plen > sz-segHeader {
		return nil, 0, corrupt(prefix, name, -1, "segment payload %d of %d bytes (file %d)", plen, total, sz)
	}
	payload := make([]byte, plen)
	if err := fs.ReadAt(client, name, payload, segHeader); err != nil {
		return nil, 0, err
	}
	// Stream the padding through a window, as the real restore reads the
	// full image.
	sum := crc.Combine(crcOf(hdr), crcOf(payload), plen)
	sum, err = readCRC(fs, name, client, sum, segHeader+plen, total-segHeader-plen)
	if err != nil {
		return nil, 0, err
	}
	return payload, sum, nil
}

// readCRC extends sum over bytes [off, off+n) of a file, read in
// operations of at most padChunk bytes through a pooled window. The
// window is as long as the read needs (a few KB of segment padding for a
// small state): a pooled buffer stays live on every rank between cycles.
func readCRC(fs *pfs.System, name string, client int, sum uint64, off, n int64) (uint64, error) {
	window := borrowStored(min(n, padChunk))
	defer recycleStored(window)
	for end := off + n; off < end; {
		b := window[:min(end-off, int64(len(window)))]
		if err := fs.ReadAt(client, name, b, off); err != nil {
			return 0, err
		}
		sum = crc.Update(sum, b)
		off += int64(len(b))
	}
	return sum, nil
}

// zeroPad is the shared read-only source of padding bytes: segment files
// of every task pad from the same megabyte of zeros instead of allocating
// one each (the paper's class A segments pad by tens of megabytes). It is
// allocated by the first padded write, so a process that pads nothing
// does not carry it.
var zeroPad = sync.OnceValue(func() []byte { return make([]byte, padChunk) })

func bytesI64(b []byte) int64 {
	return int64(binary.LittleEndian.Uint64(b))
}
