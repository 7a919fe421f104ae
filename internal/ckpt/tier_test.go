package ckpt

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"drms/internal/array"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/stream"
)

func TestMemTierPublishLookupDrop(t *testing.T) {
	tier := NewMemTier()
	data := []byte("hello, tier")
	crc := crcOf(data)
	tier.Publish([]int{0, 1}, "ck.g0", "u", 3, data, crc)

	if got := replicasOf(tier, "ck.g0", "u", 3); got != 2 {
		t.Fatalf("replicas = %d, want 2", got)
	}
	b, _, ok := tier.Lookup(-1, "ck.g0", "u", 3, crc)
	if !ok || string(b) != string(data) {
		t.Fatalf("lookup = %q ok=%v", b, ok)
	}
	if _, _, ok := tier.Lookup(-1, "ck.g0", "u", 3, crc+1); ok {
		t.Fatal("lookup with wrong CRC succeeded")
	}
	if tier.ResidentBytes() != 2*int64(len(data)) {
		t.Fatalf("resident = %d, want %d", tier.ResidentBytes(), 2*len(data))
	}

	// One holder dies: the payload survives on the other.
	tier.DropStore(0)
	if got := replicasOf(tier, "ck.g0", "u", 3); got != 1 {
		t.Fatalf("replicas after drop = %d, want 1", got)
	}
	if _, _, ok := tier.Lookup(-1, "ck.g0", "u", 3, crc); !ok {
		t.Fatal("payload lost with a surviving replica")
	}

	// The last holder dies: the payload is gone.
	tier.DropStore(1)
	if _, _, ok := tier.Lookup(-1, "ck.g0", "u", 3, crc); ok {
		t.Fatal("payload survived losing every holder")
	}
	if tier.ResidentBytes() != 0 {
		t.Fatalf("resident after drops = %d, want 0", tier.ResidentBytes())
	}
}

func TestMemTierRemovePrefixAndEntries(t *testing.T) {
	tier := NewMemTier()
	a, b := []byte("aaaa"), []byte("bbbbbb")
	tier.Publish([]int{0, 1}, "ck.g0", "u", 0, a, crcOf(a))
	tier.Publish([]int{1, 2}, "ck.g1", "u", 0, b, crcOf(b))
	tier.Publish([]int{0}, "ck.g1", "", segIndex, a, crcOf(a))

	es := tier.Entries("ck.g1")
	if len(es) != 2 {
		t.Fatalf("entries = %v, want 2", es)
	}
	// Sorted by (Arr, Index): the segment payload ("", -1) first.
	if es[0].Arr != "" || es[0].Index != segIndex || es[0].Replicas != 1 {
		t.Fatalf("segment entry = %+v", es[0])
	}
	if es[1].Arr != "u" || es[1].Replicas != 2 || es[1].Bytes != int64(len(b)) {
		t.Fatalf("piece entry = %+v", es[1])
	}

	tier.Remove("ck.g1")
	if got := tier.Entries("ck.g1"); len(got) != 0 {
		t.Fatalf("entries after remove = %v", got)
	}
	if _, _, ok := tier.Lookup(-1, "ck.g0", "u", 0, crcOf(a)); !ok {
		t.Fatal("remove of ck.g1 took ck.g0's payload with it")
	}
}

func TestMemTierSnapshotRoundTrip(t *testing.T) {
	tier := NewMemTier()
	a, b := []byte("payload-a"), []byte("payload-b")
	tier.Publish([]int{0, 2}, "ck.g0", "u", 1, a, crcOf(a))
	tier.Publish([]int{1}, "ck.g0", "", segIndex, b, crcOf(b))

	path := filepath.Join(t.TempDir(), "tier.snap")
	if err := tier.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTierFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ResidentBytes() != tier.ResidentBytes() {
		t.Fatalf("resident = %d, want %d", got.ResidentBytes(), tier.ResidentBytes())
	}
	if n := replicasOf(got, "ck.g0", "u", 1); n != 2 {
		t.Fatalf("replicas after reload = %d, want 2", n)
	}
	if _, _, ok := got.Lookup(-1, "ck.g0", "", segIndex, crcOf(b)); !ok {
		t.Fatal("segment payload lost in snapshot round trip")
	}
}

// restoreChainTier restores chainFill(step) state and returns the
// restore Stats (rank 0's copy; the tier byte totals are cluster-agreed).
func restoreChainTier(t *testing.T, fs *pfs.System, tier *MemTier, from string, step, tasks int, grid []int) Stats {
	t.Helper()
	var out Stats
	mustRun(t, tasks, func(c *msg.Comm) {
		sg, refs, u, _ := buildApp(c, grid)
		var iter int
		sg.Register("iter", &iter)
		_, st, err := ReadDRMSOpts(fs, from, c, sg, refs,
			stream.Options{PieceBytes: 300}, RestoreOptions{Verify: true, Tier: tier})
		if err != nil {
			panic(err)
		}
		if iter != step {
			panic("iter mismatch")
		}
		uf, _ := chainFill(step)
		u.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if u.At(cd) != uf(cd) {
				panic("u corrupted")
			}
		})
		if c.Rank() == 0 {
			out = st
		}
	})
	return out
}

func TestMemOnlyGenerationRoundTrip(t *testing.T) {
	fs := testFS()
	tier := NewMemTier()
	co := ChainOptions{Tier: tier, Replicas: 1, Codec: CodecRaw}

	// g0: write-through anchor (the durable fallback); g1: diskless delta.
	writeChainGen(t, fs, "job.g0", co, 0, 4, []int{2, 2})
	co1 := co
	co1.Prev, co1.Delta, co1.MemOnly = "job.g0", true, true
	writeChainGen(t, fs, "job.g1", co1, 1, 4, []int{2, 2})

	m, err := ReadMeta(fs, "job.g1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.SegWhere != TierMem {
		t.Fatalf("SegWhere = %d, want TierMem", m.SegWhere)
	}
	// A diskless generation's only file is its (tiny) commit record.
	files := fs.List("job.g1.")
	if len(files) != 1 || !strings.HasSuffix(files[0], ".meta") {
		t.Fatalf("diskless generation left files %v", files)
	}
	memLocs := 0
	for _, locs := range m.PieceLocs {
		for _, l := range locs {
			if l.Gen == 1 && l.Where != TierMem {
				t.Fatalf("generation-1 piece loc not memory-resident: %+v", l)
			}
			if l.Where == TierMem {
				memLocs++
			}
		}
	}
	if memLocs == 0 {
		t.Fatal("no memory-resident piece locations recorded")
	}

	// Verification: with the tier the chain checks out; without it the
	// memory-resident payloads are unverifiable (the quarantine signal).
	if err := VerifyTier(fs, tier, "job.g1", 0); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if err := Verify(fs, "job.g1", 0); !errors.As(err, &ce) {
		t.Fatalf("nil-tier verify of diskless generation = %v, want CorruptError", err)
	}

	// Restore the diskless generation; reconfigure onto 3 tasks too.
	st := restoreChainTier(t, fs, tier, "job.g1", 1, 4, []int{2, 2})
	if st.TierMemBytes == 0 {
		t.Fatalf("restore of diskless generation read no tier bytes: %+v", st)
	}
	restoreChainTier(t, fs, tier, "job.g1", 1, 3, []int{1, 3})

	// A restore without the tier must fail typed, not load garbage.
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, _, _ := buildApp(c, []int{2, 2})
		var iter int
		sg.Register("iter", &iter)
		_, _, err := ReadDRMSOpts(fs, "job.g1", c, sg, refs,
			stream.Options{PieceBytes: 300}, RestoreOptions{})
		if err == nil {
			panic("nil-tier restore of diskless generation succeeded")
		}
	})
}

func TestTierHotRestoreOfWriteThroughGeneration(t *testing.T) {
	fs := testFS()
	tier := NewMemTier()
	co := ChainOptions{Tier: tier, Replicas: 1, Codec: CodecRaw}
	writeChainGen(t, fs, "job.g0", co, 0, 4, []int{2, 2})

	// Write-through generations also publish to the tier, so a healthy
	// pool restores entirely from memory — zero pfs payload reads.
	st := restoreChainTier(t, fs, tier, "job.g0", 0, 4, []int{2, 2})
	if st.TierMemBytes == 0 || st.TierPFSBytes != 0 {
		t.Fatalf("hot restore read mem=%d pfs=%d, want all-mem", st.TierMemBytes, st.TierPFSBytes)
	}

	// Kill every store: the same restore falls back to the pfs cleanly.
	for _, h := range []int{0, 1, 2, 3} {
		tier.DropStore(h)
	}
	st = restoreChainTier(t, fs, tier, "job.g0", 0, 4, []int{2, 2})
	if st.TierPFSBytes == 0 {
		t.Fatalf("fallback restore read no pfs bytes: %+v", st)
	}
}

// The headline perf property behind the memory tier's restore claim
// (TestModeledClaims in internal/bench): an equal-layout hot restore
// with owner-aligned placement touches no payload file and moves no
// modeled network bytes — only metadata reads. A regression here
// (misaligned placement, a lookup that stops preferring the local
// store, the coarse hot plan failing to engage) silently turns the
// millisecond restore back into a redistribution, so pin it on the
// trace itself.
func TestTierHotRestoreDoesNoPayloadOrNetworkIO(t *testing.T) {
	fs := testFS()
	tier := NewMemTier()
	co := ChainOptions{Tier: tier, Replicas: 1, Codec: CodecRaw}

	// Rank-aligned fixture: 128 elements block-distributed over 4 tasks
	// is 256 B of float64 and 128 B of int32 per rank, so 128-byte
	// pieces never straddle an ownership boundary and every piece's
	// majority owner is its only reader. (A straddling piece is pulled
	// from its owner's store and charged as network — correct, but not
	// the property under test.)
	const pieceBytes = 128
	build := func(c *msg.Comm, tasks int) (ref []ArrayRef, u *array.Array[float64], sg *seg.Segment) {
		g := rangeset.NewSlice(rangeset.Span(0, 127))
		u, err := array.New[float64](c, "u", mustBlock(g, []int{tasks}))
		if err != nil {
			panic(err)
		}
		ids, err := array.New[int32](c, "ids", mustBlock(g, []int{tasks}))
		if err != nil {
			panic(err)
		}
		return []ArrayRef{Ref(u), Ref(ids)}, u, seg.New()
	}
	mustRun(t, 4, func(c *msg.Comm) {
		refs, u, sg := build(c, 4)
		iter := 5
		sg.Register("iter", &iter)
		u.Fill(func(cd []int) float64 { return float64(cd[0]) * 1.5 })
		if _, err := WriteDRMSChained(fs, "job.g0", c, sg, refs,
			stream.Options{PieceBytes: pieceBytes}, co); err != nil {
			panic(err)
		}
	})

	restore := func(tasks int) {
		mustRun(t, tasks, func(c *msg.Comm) {
			refs, u, sg := build(c, tasks)
			var iter int
			sg.Register("iter", &iter)
			_, _, err := ReadDRMSOpts(fs, "job.g0", c, sg, refs,
				stream.Options{PieceBytes: pieceBytes}, RestoreOptions{Verify: true, Tier: tier})
			if err != nil {
				panic(err)
			}
			if iter != 5 {
				panic("iter mismatch")
			}
			u.Mapped().Each(rangeset.ColMajor, func(cd []int) {
				if u.At(cd) != float64(cd[0])*1.5 {
					panic("u corrupted")
				}
			})
		})
	}

	fs.StartTrace()
	restore(4)
	tr := fs.StopTrace()
	for _, op := range tr.Ops {
		if op.Net {
			t.Fatalf("hot equal-layout restore moved %d net bytes (client %d)", op.Bytes, op.Client)
		}
		if !strings.HasSuffix(op.File, ".meta") {
			t.Fatalf("hot equal-layout restore touched payload file %q (%d bytes)", op.File, op.Bytes)
		}
	}

	// Same generation, half the pool: still correct (checked inside
	// restore), but the pieces owned by the vanished ranks are pulled
	// from their nodes' stores and show up as net traffic — the
	// accounting that keeps the zero above honest.
	fs.StartTrace()
	restore(2)
	tr = fs.StopTrace()
	net := int64(0)
	for _, op := range tr.Ops {
		if op.Net {
			net += op.Bytes
		}
	}
	if net == 0 {
		t.Fatal("reconfigured restore from peer stores recorded no net bytes")
	}
}

func TestResolveVerifiedTierFallsBackToDisk(t *testing.T) {
	fs := testFS()
	tier := NewMemTier()
	co := ChainOptions{Tier: tier, Replicas: 1, Codec: CodecRaw}
	writeChainGen(t, fs, "job.g0", co, 0, 4, []int{2, 2})
	co1 := co
	co1.Prev, co1.Delta, co1.MemOnly = "job.g0", true, true
	writeChainGen(t, fs, "job.g1", co1, 1, 4, []int{2, 2})

	// Healthy tier: the newest (diskless) generation wins.
	chosen, _, ok, err := ResolveVerifiedTier(fs, tier, "job")
	if !ok || chosen != "job.g1" {
		t.Fatalf("resolve = %q ok=%v err=%v, want job.g1", chosen, ok, err)
	}

	// Every replica holder dies: resolution quarantines the diskless
	// generation and falls back to the write-through one.
	for _, h := range []int{0, 1, 2, 3} {
		tier.DropStore(h)
	}
	chosen, quarantined, ok, ferr := ResolveVerifiedTier(fs, tier, "job")
	if !ok || chosen != "job.g0" {
		t.Fatalf("post-loss resolve = %q ok=%v, want job.g0", chosen, ok)
	}
	if len(quarantined) != 1 || quarantined[0] != "job.g1" {
		t.Fatalf("quarantined = %v, want [job.g1]", quarantined)
	}
	var ce *CorruptError
	if !errors.As(ferr, &ce) {
		t.Fatalf("firstErr = %v, want CorruptError", ferr)
	}
	// The fallback restores without any tier help.
	restoreChainTier(t, fs, nil, "job.g0", 0, 4, []int{2, 2})
}

// TestPruneNeverDropsDiskAnchorUnderMemGenerations is the tier-aware
// retention regression: a disk anchor that in-memory-only generations
// (transitively) rely on — by chain dependency or as the rotation's only
// durable fallback — must survive pruning even beyond the Keep horizon.
func TestPruneNeverDropsDiskAnchorUnderMemGenerations(t *testing.T) {
	grid := []int{2, 2}

	t.Run("dep-pinned", func(t *testing.T) {
		fs := testFS()
		tier := NewMemTier()
		co := ChainOptions{Tier: tier, Replicas: 1, Codec: CodecRaw}
		writeChainGen(t, fs, "job.g0", co, 0, 4, grid)
		for g := 1; g <= 2; g++ {
			cg := co
			cg.Prev = Rotation{Base: "job"}.generation(g - 1)
			cg.Delta, cg.MemOnly = true, true
			writeChainGen(t, fs, Rotation{Base: "job"}.generation(g), cg, g, 4, grid)
		}
		rot := Rotation{Base: "job", Keep: 2, Tier: tier}
		rot.Prune(fs)
		if err := VerifyTier(fs, tier, "job.g2", 0); err != nil {
			t.Fatalf("newest generation broken after prune: %v", err)
		}
		if _, err := ReadMeta(fs, "job.g0", 0); err != nil {
			t.Fatalf("prune dropped the disk anchor the chain depends on: %v", err)
		}
	})

	t.Run("volatile-only-horizon", func(t *testing.T) {
		// No dependency edge reaches the disk generation: g1 and g2 are
		// self-contained *memory* anchors. Without tier-aware retention
		// the prune would delete g0 and leave the rotation with no
		// durable restart point at all.
		fs := testFS()
		tier := NewMemTier()
		co := ChainOptions{Tier: tier, Replicas: 1, Codec: CodecRaw}
		writeChainGen(t, fs, "job.g0", co, 0, 4, grid)
		for g := 1; g <= 2; g++ {
			cg := co
			cg.MemOnly = true // anchor: no Prev, no deps
			writeChainGen(t, fs, Rotation{Base: "job"}.generation(g), cg, g, 4, grid)
		}
		rot := Rotation{Base: "job", Keep: 2, Tier: tier}
		rot.Prune(fs)
		if _, err := ReadMeta(fs, "job.g0", 0); err != nil {
			t.Fatalf("prune dropped the only durable generation: %v", err)
		}
		// After the memory generations die, g0 is still a restart point.
		for _, h := range []int{0, 1, 2, 3} {
			tier.DropStore(h)
		}
		chosen, _, ok, _ := ResolveVerifiedTier(fs, tier, "job")
		if !ok || chosen != "job.g0" {
			t.Fatalf("resolve after memory loss = %q ok=%v, want job.g0", chosen, ok)
		}
	})
}

// TestDemotedGenerationIsCompleteOnDisk checks write-through soundness:
// a demoted (disk) delta after diskless generations must re-store every
// piece whose previous location was memory-resident, so it is a complete
// pfs fallback on its own chain — restorable with no tier at all.
func TestDemotedGenerationIsCompleteOnDisk(t *testing.T) {
	fs := testFS()
	tier := NewMemTier()
	co := ChainOptions{Tier: tier, Replicas: 1, Codec: CodecRaw}
	writeChainGen(t, fs, "job.g0", co, 0, 4, []int{2, 2})
	co1 := co
	co1.Prev, co1.Delta, co1.MemOnly = "job.g0", true, true
	writeChainGen(t, fs, "job.g1", co1, 1, 4, []int{2, 2})
	co2 := co
	co2.Prev, co2.Delta = "job.g1", true // demoted: write-through
	writeChainGen(t, fs, "job.g2", co2, 2, 4, []int{2, 2})

	m, err := ReadMeta(fs, "job.g2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.SegWhere == TierMem {
		t.Fatal("demoted generation marked memory-resident")
	}
	for _, locs := range m.PieceLocs {
		for _, l := range locs {
			if l.Where == TierMem {
				t.Fatalf("demoted generation carries a memory-resident location: %+v", l)
			}
		}
	}
	// The acid test: drop all peer memory, restore g2 from disk alone.
	for _, h := range []int{0, 1, 2, 3} {
		tier.DropStore(h)
	}
	if err := Verify(fs, "job.g2", 0); err != nil {
		t.Fatal(err)
	}
	restoreChainTier(t, fs, nil, "job.g2", 2, 4, []int{2, 2})
}

// tornPublish stores bytes under a CRC they do not hash to: a replica
// whose memory was damaged after it was published.
func tornPublish(tier *MemTier, holder int, prefix, arr string, index int, good []byte) {
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x40
	tier.Publish([]int{holder}, prefix, arr, index, bad, crcOf(good))
}

// TestMemTierSkipsCorruptReplica: a damaged first replica is passed over
// for a valid later one — by Lookup, the piece fetcher and readSegment
// alike — and once every replica is damaged the payload reads as absent;
// only the fetch that needed a memory-only piece counts it lost, never
// the lookups a fetcher makes when it is built. A disk segment whose
// tier copy fails its own CRC is served from the pfs file.
func TestMemTierSkipsCorruptReplica(t *testing.T) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	tier := NewMemTier()
	good := []byte("sixteen byte pay" + "load, twice over")
	want := crcOf(good)
	tornPublish(tier, 0, "ck.g3", "u", 5, good)
	tier.Publish([]int{2}, "ck.g3", "u", 5, good, want)
	loc := PieceLoc{PieceSum: PieceSum{Index: 5, Off: 0, CRC: want, Bytes: int64(len(good))},
		Gen: 3, FileBytes: int64(len(good)), Where: TierMem}
	fetcher := func() *pieceFetcher { return newPieceFetcher(fs, tier, "ck.g3", "u", []PieceLoc{loc}, nil, 0, 0) }
	lost := tierLostPieces.Value()

	if b, _, ok := tier.Lookup(-1, "ck.g3", "u", 5, want); !ok || string(b) != string(good) {
		t.Fatalf("lookup past a corrupt replica = %q ok=%v", b, ok)
	}
	if b, local, ok := tier.Lookup(0, "ck.g3", "u", 5, want); !ok || local || string(b) != string(good) {
		t.Fatalf("self's corrupt replica: served %q local=%v ok=%v", b, local, ok)
	}
	if _, local, ok := tier.Lookup(2, "ck.g3", "u", 5, want); !ok || !local {
		t.Fatalf("valid self replica: local=%v ok=%v", local, ok)
	}
	if n := replicasOf(tier, "ck.g3", "u", 5); n != 1 {
		t.Fatalf("replicas = %d, want 1", n)
	}
	f := fetcher()
	dst := make([]byte, len(good))
	if !f.allResident() {
		t.Fatal("piece with one valid replica not resident")
	}
	if err := f.fetch(0, 0, dst); err != nil || string(dst) != string(good) {
		t.Fatalf("fetch past a corrupt replica = %q, %v", dst, err)
	}
	if got := tierLostPieces.Value(); got != lost {
		t.Fatalf("lost-pieces ticked %d times with a valid replica alive", got-lost)
	}

	tornPublish(tier, 2, "ck.g3", "u", 5, good)
	if _, _, ok := tier.Lookup(-1, "ck.g3", "u", 5, want); ok {
		t.Fatal("lookup served a corrupt replica")
	}
	if replicasOf(tier, "ck.g3", "u", 5) != 0 || fetcher().allResident() {
		t.Fatal("all replicas corrupt, yet the payload reads as present")
	}
	if got := tierLostPieces.Value(); got != lost {
		t.Fatalf("a fetcher's lookups ticked lost-pieces %d times", got-lost)
	}
	var ce *CorruptError
	if err := fetcher().fetch(0, 0, dst); !errors.As(err, &ce) || ce.Piece != 5 {
		t.Fatalf("fetch of a lost memory-only piece: %v", err)
	}
	if got := tierLostPieces.Value(); got != lost+1 {
		t.Fatalf("lost-pieces ticked %d times for one lost piece", got-lost)
	}
	// The segment path counts its loss the same way.
	tornPublish(tier, 1, "ck.g3", "", segIndex, good)
	m := &Meta{SegWhere: TierMem, SegCRC: []uint64{want}, SegBytes: []int64{int64(len(good))}}
	if _, _, _, err := readSegment(fs, tier, "ck.g3", 0, 1, m); !errors.As(err, &ce) {
		t.Fatalf("readSegment of a lost memory-only segment: %v", err)
	}
	if got := tierLostPieces.Value(); got != lost+2 {
		t.Fatalf("lost-pieces = +%d after a lost piece and a lost segment", got-lost)
	}

	// A disk segment: its tier copy is published under the right CRC,
	// so the file CRC rebuilds from it, but the bytes are torn.
	total := int64(segHeader + len(good) + 100)
	fileCRC, err := writeSegmentFile(fs, segFile("ck.g4"), 0, good, total)
	if err != nil {
		t.Fatal(err)
	}
	tornPublish(tier, 1, "ck.g4", "", segIndex, good)
	m = &Meta{SegCRC: []uint64{fileCRC}, SegBytes: []int64{total}}
	if data, mem, pfsBytes, err := readSegment(fs, tier, "ck.g4", 0, 1, m); err != nil ||
		string(data) != string(good) || mem != 0 || pfsBytes != total {
		t.Fatalf("disk segment past a torn tier copy: %q mem=%d pfs=%d, %v", data, mem, pfsBytes, err)
	}
	tier.Publish([]int{2}, "ck.g4", "", segIndex, good, want)
	if data, mem, pfsBytes, err := readSegment(fs, tier, "ck.g4", 0, 1, m); err != nil ||
		string(data) != string(good) || mem != int64(len(good)) || pfsBytes != 0 {
		t.Fatalf("disk segment with an intact tier copy: %q mem=%d pfs=%d, %v", data, mem, pfsBytes, err)
	}
	if got := tierLostPieces.Value(); got != lost+2 {
		t.Fatalf("a disk segment's tier miss ticked lost-pieces %d times", got-lost-2)
	}
}

// TestMemTierConcurrentReadersAndWriters is for the race detector:
// lookups validate outside the tier lock while publishes, store drops
// and prefix removals rewrite the same keys. Whatever a lookup serves
// must hash to the CRC it was asked for.
func TestMemTierConcurrentReadersAndWriters(t *testing.T) {
	tier := NewMemTier()
	const pieces = 8
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 4096) }
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < pieces; i++ {
					p := payload(i)
					tier.Publish([]int{(i + w) % 4, (i + w + 1) % 4}, "ck.g1", "u", i, p, crcOf(p))
				}
				switch round % 3 {
				case 0:
					tier.DropStore((round + w) % 4)
				case 1:
					tier.Remove("ck.g1")
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for round := 0; round < 50; round++ {
				for i := 0; i < pieces; i++ {
					want := crcOf(payload(i))
					if b, _, ok := tier.Lookup(r, "ck.g1", "u", i, want); ok && crcOf(b) != want {
						t.Errorf("piece %d: served bytes hash to %016x, want %016x", i, crcOf(b), want)
					}
					if n := replicasOf(tier, "ck.g1", "u", i); n < 0 || n > 4 {
						t.Errorf("piece %d: %d replicas", i, n)
					}
				}
				tier.Entries("ck.g1")
				tier.ResidentBytes()
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// BenchmarkTierCheck is the tier lookups of one hot restore: four ranks
// each looking up every piece of a 1.5 MB array (48 pieces of 32 KiB,
// two replicas each) at once, self's store first; `make test` runs it
// once.
func BenchmarkTierCheck(b *testing.B) {
	tier := NewMemTier()
	const pieces, readers = 48, 4
	crcs := make([]uint64, pieces)
	for i := range crcs {
		p := bytes.Repeat([]byte{byte(i)}, 32<<10)
		crcs[i] = crcOf(p)
		tier.Publish([]int{i % 4, (i + 1) % 4}, "ck.g1", "u", i, p, crcs[i])
	}
	b.SetBytes(readers * pieces * 32 << 10)
	b.ReportAllocs()
	for b.Loop() {
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, crc := range crcs {
					if _, _, ok := tier.Lookup(r, "ck.g1", "u", i, crc); !ok {
						b.Errorf("piece %d not resident", i)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestFallbackAnchorLeavesTheTier: when every retained generation is
// memory-resident, the prune keeps the newest disk generation as the
// durable fallback — on disk only. Its replicas leave peer memory, and a
// restore from it is served from the pfs, bit-exact.
func TestFallbackAnchorLeavesTheTier(t *testing.T) {
	grid := []int{2, 2}
	fs := testFS()
	tier := NewMemTier()
	co := ChainOptions{Tier: tier, Replicas: 1, Codec: CodecRaw}
	writeChainGen(t, fs, "job.g0", co, 0, 4, grid) // write-through anchor
	for g := 1; g <= 2; g++ {
		cg := co
		cg.MemOnly = true // memory anchors: nothing depends on g0
		writeChainGen(t, fs, Rotation{Base: "job"}.generation(g), cg, g, 4, grid)
	}
	if len(tier.Entries("job.g0")) == 0 {
		t.Fatal("the write-through anchor published no replicas")
	}
	Rotation{Base: "job", Keep: 2, Tier: tier}.Prune(fs)
	if _, err := ReadMeta(fs, "job.g0", 0); err != nil {
		t.Fatalf("prune dropped the durable fallback: %v", err)
	}
	if es := tier.Entries("job.g0"); len(es) != 0 {
		t.Fatalf("the fallback anchor still has %d tier entries", len(es))
	}
	for _, g := range []string{"job.g1", "job.g2"} {
		if len(tier.Entries(g)) == 0 {
			t.Fatalf("retained memory generation %s lost its replicas", g)
		}
	}
	st := restoreChainTier(t, fs, tier, "job.g0", 0, 4, grid)
	if st.TierMemBytes != 0 || st.TierPFSBytes == 0 {
		t.Fatalf("fallback restore moved mem=%d pfs=%d bytes, want all from the pfs", st.TierMemBytes, st.TierPFSBytes)
	}
}
