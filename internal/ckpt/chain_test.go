package ckpt

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"drms/internal/array"
	"drms/internal/codec"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/stream"
)

// chainFill is the sparse-update workload: step k rewrites only column
// k%12 of u (12 consecutive elements in the col-major stream, so the
// change stays localized to one or two pieces) and leaves ids constant
// (fully unchanged and highly compressible).
func chainFill(step int) (func([]int) float64, func([]int) int32) {
	uf := func(cd []int) float64 {
		if cd[1] == step%12 {
			return coordVal(cd) + 1000*float64(step+1)
		}
		return coordVal(cd)
	}
	idf := func(cd []int) int32 { return 7 }
	return uf, idf
}

func writeChainGen(t testing.TB, fs *pfs.System, prefix string, co ChainOptions, step, tasks int, grid []int) {
	t.Helper()
	mustRun(t, tasks, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, grid)
		iter := step
		sg.Register("iter", &iter)
		uf, idf := chainFill(step)
		u.Fill(uf)
		ids.Fill(idf)
		if _, err := WriteDRMSChained(fs, prefix, c, sg, refs, stream.Options{PieceBytes: 300}, co); err != nil {
			panic(err)
		}
	})
}

// storedEras hold the same state — chainFill(0) under job.g0,
// chainFill(1) under job.g1, 4 tasks — in both layouts a reader meets:
// "v2" as this tree writes a standalone checkpoint (task-sized piece
// files), "v1" as drmsfsck -repair leaves the stored v1 rotation (one
// task-0 piece file per array holding the whole stream, the v1 piece plan
// as its location table).
var storedEras = []struct {
	name  string
	store func(t testing.TB, fs *pfs.System)
}{
	{"v2", func(t testing.TB, fs *pfs.System) {
		for step, g := range []string{"job.g0", "job.g1"} {
			writeChainGen(t, fs, g, ChainOptions{Codec: CodecRaw, NoDeltaBase: true}, step, 4, []int{2, 2})
		}
	}},
	{"v1", loadUpgradedV1Rotation},
}

// forEachEra runs f once per stored era on a fresh file system.
func forEachEra(t *testing.T, f func(t *testing.T, fs *pfs.System)) {
	for _, era := range storedEras {
		t.Run(era.name, func(t *testing.T) {
			fs := testFS()
			era.store(t, fs)
			f(t, fs)
		})
	}
}

// checkChainRestore restores from and verifies the state chainFill(step)
// wrote, on an arbitrary task count and read piece size — the stored
// piece extents need not match the requested ones.
func checkChainRestore(t testing.TB, fs *pfs.System, from string, step, tasks int, grid []int, readPieceBytes int) {
	t.Helper()
	from, ok := Resolve(fs, from) // a base prefix resolves to its newest generation
	if !ok {
		t.Fatalf("no checkpoint reachable from %q", from)
	}
	mustRun(t, tasks, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, grid)
		var iter int
		sg.Register("iter", &iter)
		_, _, err := ReadDRMSOpts(fs, from, c, sg, refs,
			stream.Options{PieceBytes: readPieceBytes}, RestoreOptions{Verify: true})
		if err != nil {
			panic(err)
		}
		if iter != step {
			panic(fmt.Sprintf("iter = %d, want %d", iter, step))
		}
		uf, idf := chainFill(step)
		u.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if u.At(cd) != uf(cd) {
				panic(fmt.Sprintf("u%v = %v, want %v", cd, u.At(cd), uf(cd)))
			}
		})
		ids.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if ids.At(cd) != idf(cd) {
				panic("ids corrupted")
			}
		})
	})
}

func TestChainedAnchorDeltaRoundTrip(t *testing.T) {
	for _, cm := range []CodecMode{CodecRaw, CodecFlate} {
		cm := cm
		t.Run(cm.String(), func(t *testing.T) {
			fs := testFS()
			writeChainGen(t, fs, "job.g0", ChainOptions{Codec: cm}, 0, 4, []int{2, 2})
			writeChainGen(t, fs, "job.g1", ChainOptions{Prev: "job.g0", Delta: true, Codec: cm}, 1, 4, []int{2, 2})
			writeChainGen(t, fs, "job.g2", ChainOptions{Prev: "job.g1", Delta: true, Codec: cm}, 2, 4, []int{2, 2})

			m, err := ReadMeta(fs, "job.g2", 0)
			if err != nil {
				t.Fatal(err)
			}
			if m.ChainLen != 2 || len(m.Deps) == 0 {
				t.Fatalf("chain meta = len %d deps %v", m.ChainLen, m.Deps)
			}
			// The deltas actually elide: a delta generation stores far less
			// than the anchor.
			if a, d := StateBytes(fs, "job.g0"), StateBytes(fs, "job.g1"); d >= a {
				t.Fatalf("delta generation %d bytes >= anchor %d bytes", d, a)
			}
			if cm == CodecFlate {
				m0, _ := ReadMeta(fs, "job.g0", 0)
				compressed := false
				for _, l := range m0.PieceLocs[1] { // ids: constant, compressible
					if codec.ID(l.Codec) == codec.Flate && l.FileBytes < l.Bytes {
						compressed = true
					}
				}
				if !compressed {
					t.Fatal("no ids piece stored compressed")
				}
			}
			for _, gen := range []string{"job.g0", "job.g1", "job.g2"} {
				if err := Verify(fs, gen, 0); err != nil {
					t.Fatalf("%s: %v", gen, err)
				}
			}
			// Restore the newest state via the base prefix, reconfigured to
			// several task counts and read piece sizes.
			checkChainRestore(t, fs, "job", 2, 4, []int{2, 2}, 300)
			checkChainRestore(t, fs, "job", 2, 3, []int{1, 3}, 128)
			checkChainRestore(t, fs, "job", 2, 8, []int{4, 2}, 128)
			// A retained mid-chain generation restores too.
			checkChainRestore(t, fs, "job.g1", 1, 2, []int{2, 1}, 200)
		})
	}
}

func TestChainedDeltaDemotedOnV1Prev(t *testing.T) {
	// Cross-version chain start: the previous generation is a legacy
	// checkpoint no reader decodes, so a requested delta silently becomes
	// an anchor — which restores — while the legacy generations keep
	// refusing until they are upgraded.
	fs := testFS()
	loadV1Rotation(t, fs)
	writeChainGen(t, fs, "job.g2", ChainOptions{Prev: "job.g1", Delta: true, Codec: CodecRaw}, 2, 4, []int{2, 2})
	m, err := ReadMeta(fs, "job.g2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.ChainLen != 0 || m.Deps != nil {
		t.Fatalf("delta against a v1 checkpoint not demoted: len %d deps %v", m.ChainLen, m.Deps)
	}
	checkChainRestore(t, fs, "job", 2, 3, []int{3, 1}, 128)
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, _, _ := buildApp(c, []int{2, 1})
		if _, _, err := ReadDRMSOpts(fs, "job.g1", c, sg, refs, stream.Options{}, RestoreOptions{}); !errors.Is(err, ErrLegacyFormat) {
			panic(fmt.Sprintf("restore of a legacy generation: %v", err))
		}
	})
	upgradeStored(t, fs, "job.g1")
	checkChainRestore(t, fs, "job.g1", 1, 2, []int{2, 1}, 128)
}

// TestDeltaAgainstStandaloneAnchorIsAnAnchor: an anchor written without
// fingerprints (NoDeltaBase) is no delta base. The delta requested
// against it stores everything, depends on nothing and says so; it does
// carry fingerprints, so the one after it is a real delta.
func TestDeltaAgainstStandaloneAnchorIsAnAnchor(t *testing.T) {
	fs := testFS()
	storedEras[0].store(t, fs)
	if m, err := ReadMeta(fs, "job.g1", 0); err != nil || m.Sections != nil {
		t.Fatalf("standalone anchor: %d fingerprint lists, err %v", len(m.Sections), err)
	}
	writeChainGen(t, fs, "job.g2", ChainOptions{Prev: "job.g1", Delta: true, Codec: CodecRaw}, 2, 4, []int{2, 2})
	writeChainGen(t, fs, "job.g3", ChainOptions{Prev: "job.g2", Delta: true, Codec: CodecRaw}, 3, 4, []int{2, 2})
	m2, _ := ReadMeta(fs, "job.g2", 0)
	m3, _ := ReadMeta(fs, "job.g3", 0)
	if m2.ChainLen != 0 || m2.Deps != nil || len(m2.Sections) != len(m2.Arrays) {
		t.Fatalf("g2: len %d deps %v, %d fingerprint lists", m2.ChainLen, m2.Deps, len(m2.Sections))
	}
	if m3.ChainLen != 1 || len(m3.Deps) != 1 || m3.Deps[0] != 2 {
		t.Fatalf("g3: len %d deps %v, want a delta of g2", m3.ChainLen, m3.Deps)
	}
	for _, g := range []string{"job.g2", "job.g3"} {
		if err := Verify(fs, g, 0); err != nil {
			t.Fatal(err)
		}
	}
	checkChainRestore(t, fs, "job", 3, 3, []int{3, 1}, 128)
}

func TestChainedVerifyDetectsBrokenChain(t *testing.T) {
	fs := testFS()
	writeChainGen(t, fs, "job.g0", ChainOptions{Codec: CodecRaw}, 0, 4, []int{2, 2})
	writeChainGen(t, fs, "job.g1", ChainOptions{Prev: "job.g0", Delta: true, Codec: CodecRaw}, 1, 4, []int{2, 2})

	// Flip one byte of an anchor piece the delta carries forward (ids is
	// fully referenced, never rewritten).
	m1, err := ReadMeta(fs, "job.g1", 0)
	if err != nil {
		t.Fatal(err)
	}
	var hit *PieceLoc
	for i := range m1.PieceLocs[1] {
		if m1.PieceLocs[1][i].Gen == 0 {
			hit = &m1.PieceLocs[1][i]
			break
		}
	}
	if hit == nil {
		t.Fatal("delta carries no ids piece forward")
	}
	file := PieceFile("job.g0", "ids", hit.Task)
	b := make([]byte, 1)
	if err := fs.ReadAt(0, file, b, hit.FileOff); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt(0, file, []byte{b[0] ^ 0xff}, hit.FileOff); err != nil {
		t.Fatal(err)
	}

	// The delta's verification walks the chain and finds the damage even
	// though the delta's own files are intact.
	if err := Verify(fs, "job.g1", 0); err == nil {
		t.Fatal("broken chain passed verification")
	}
	// Resolution cascade: the delta fails, its anchor fails for the same
	// corruption, nothing restorable remains.
	_, quarantined, ok, firstErr := ResolveVerified(fs, "job")
	if ok || len(quarantined) != 2 || firstErr == nil {
		t.Fatalf("resolve = ok %v quarantined %v err %v", ok, quarantined, firstErr)
	}
}

func TestResolveVerifiedFallsBackPastCorruptDelta(t *testing.T) {
	fs := testFS()
	writeChainGen(t, fs, "job.g0", ChainOptions{Codec: CodecRaw}, 0, 4, []int{2, 2})
	writeChainGen(t, fs, "job.g1", ChainOptions{Prev: "job.g0", Delta: true, Codec: CodecRaw}, 1, 4, []int{2, 2})

	// Damage a piece the delta itself wrote (a u piece with Gen 1).
	m1, err := ReadMeta(fs, "job.g1", 0)
	if err != nil {
		t.Fatal(err)
	}
	var hit *PieceLoc
	for i := range m1.PieceLocs[0] {
		if m1.PieceLocs[0][i].Gen == 1 {
			hit = &m1.PieceLocs[0][i]
			break
		}
	}
	if hit == nil {
		t.Fatal("delta wrote no u piece of its own")
	}
	file := PieceFile("job.g1", "u", hit.Task)
	if err := fs.WriteAt(0, file, []byte{0xde, 0xad}, hit.FileOff); err != nil {
		t.Fatal(err)
	}

	chosen, quarantined, ok, _ := ResolveVerified(fs, "job")
	if !ok || chosen != "job.g0" || len(quarantined) != 1 || quarantined[0] != "job.g1" {
		t.Fatalf("resolve = %q ok %v quarantined %v", chosen, ok, quarantined)
	}
	// The surviving anchor restores the pre-delta state.
	checkChainRestore(t, fs, chosen, 0, 3, []int{3, 1}, 128)
}

func TestChainedPruneKeepsDependencies(t *testing.T) {
	fs := testFS()
	writeChainGen(t, fs, "job.g0", ChainOptions{Codec: CodecRaw}, 0, 4, []int{2, 2})
	writeChainGen(t, fs, "job.g1", ChainOptions{Prev: "job.g0", Delta: true, Codec: CodecRaw}, 1, 4, []int{2, 2})
	writeChainGen(t, fs, "job.g2", ChainOptions{Prev: "job.g1", Delta: true, Codec: CodecRaw}, 2, 4, []int{2, 2})

	rot := Rotation{Base: "job", Keep: 1}
	rot.Prune(fs)
	// Keep=1 retains only g2, but g2 still references pieces stored in
	// g0, so g0 must survive. g1 holds nothing g2 needs — every piece g1
	// rewrote was rewritten again or carried with its original g0
	// location (flat back-pointers) — so it is correctly pruned.
	if gens := rot.Generations(fs); len(gens) != 2 || gens[0] != "job.g0" || gens[1] != "job.g2" {
		t.Fatalf("prune kept %v, want [job.g0 job.g2]", gens)
	}
	if err := Verify(fs, "job.g2", 0); err != nil {
		t.Fatal(err)
	}
	checkChainRestore(t, fs, "job", 2, 3, []int{3, 1}, 128)

	// A fresh anchor cuts the chain: the next prune removes all of it.
	writeChainGen(t, fs, "job.g3", ChainOptions{Codec: CodecRaw}, 3, 4, []int{2, 2})
	rot.Prune(fs)
	if gens := rot.Generations(fs); len(gens) != 1 || gens[0] != "job.g3" {
		t.Fatalf("generations after anchor prune = %v", gens)
	}
	if n := StateBytes(fs, "job.g0") + StateBytes(fs, "job.g1") + StateBytes(fs, "job.g2"); n != 0 {
		t.Fatalf("pruned chain left %d bytes", n)
	}
	checkChainRestore(t, fs, "job", 3, 2, []int{2, 1}, 128)
}

func TestSquashFoldsChainIntoAnchor(t *testing.T) {
	fs := testFS()
	writeChainGen(t, fs, "job.g0", ChainOptions{Codec: CodecFlate}, 0, 4, []int{2, 2})
	writeChainGen(t, fs, "job.g1", ChainOptions{Prev: "job.g0", Delta: true, Codec: CodecFlate}, 1, 4, []int{2, 2})

	dst, squashed, err := Squash(fs, "job", 0)
	if err != nil || !squashed || dst != "job.g2" {
		t.Fatalf("squash = %q %v %v", dst, squashed, err)
	}
	m, err := ReadMeta(fs, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.ChainLen != 0 || m.Deps != nil {
		t.Fatalf("squashed meta = len %d deps %v", m.ChainLen, m.Deps)
	}
	if err := Verify(fs, dst, 0); err != nil {
		t.Fatal(err)
	}
	// Squashing twice is a no-op: the newest generation is self-contained.
	if p, again, err := Squash(fs, "job", 0); err != nil || again || p != dst {
		t.Fatalf("re-squash = %q %v %v", p, again, err)
	}
	checkChainRestore(t, fs, dst, 1, 3, []int{3, 1}, 128)

	// With the anchor in place the old chain is prunable.
	Rotation{Base: "job", Keep: 1}.Prune(fs)
	if n := StateBytes(fs, "job.g0") + StateBytes(fs, "job.g1"); n != 0 {
		t.Fatalf("old chain survived squash+prune: %d bytes", n)
	}
	checkChainRestore(t, fs, "job", 1, 2, []int{2, 1}, 200)
}

func TestRotationViewCachesScan(t *testing.T) {
	fs := testFS()
	rot := Rotation{Base: "v", Keep: 2}
	view := NewRotationView(rot)
	if _, _, ok := view.Latest(fs); ok {
		t.Fatal("latest on empty history")
	}
	for gen := 0; gen < 4; gen++ {
		prefix := view.NextPrefix(fs)
		if want := fmt.Sprintf("v.g%d", gen); prefix != want {
			t.Fatalf("next prefix = %q, want %q", prefix, want)
		}
		gen := gen
		mustRun(t, 2, func(c *msg.Comm) {
			sg, refs, u, ids := buildApp(c, []int{2, 1})
			iter := gen
			sg.Register("iter", &iter)
			u.Fill(coordVal)
			ids.Fill(func([]int) int32 { return int32(gen) })
			if _, err := WriteDRMS(fs, prefix, c, sg, refs, stream.Options{}); err != nil {
				panic(err)
			}
		})
		view.NoteCommitted(prefix)
		view.Prune(fs)
		if _, latest, ok := view.Latest(fs); !ok || latest != prefix {
			t.Fatalf("latest after commit = %q %v", latest, ok)
		}
	}
	// The cached view and a fresh directory scan agree.
	if gens := rot.Generations(fs); len(gens) != 2 || gens[0] != "v.g2" || gens[1] != "v.g3" {
		t.Fatalf("generations = %v", gens)
	}
	// A reserved number is never reused, even when its attempt dies
	// before committing anything.
	_ = view.NextPrefix(fs) // v.g4 reserved, never written
	if p := view.NextPrefix(fs); p != "v.g5" {
		t.Fatalf("reserved generation reused: %q", p)
	}
	// A fresh view picks up out-of-band mutations.
	Quarantine(fs, "v.g3")
	view = NewRotationView(rot)
	if _, latest, ok := view.Latest(fs); !ok || latest != "v.g2" {
		t.Fatalf("latest of a fresh view after quarantine = %q %v", latest, ok)
	}
}

// The four TestIncremental* cases pin §6's incremental-checkpointing
// contract on the one delta path, chained generations: a delta writes
// only the pieces that changed, and falls back to a full write whenever
// per-piece diffing against the base cannot be trusted.

// deltaBytes sums a chained write's carried-forward and stored array
// bytes over all tasks (back-pointers are recorded at task 0, stored
// bytes by each writer).
func deltaBytes(c *msg.Comm, st Stats) (skipped, stored int64) {
	sk, err := c.AllreduceF64(float64(st.SkippedBytes), msg.Sum)
	if err != nil {
		panic(err)
	}
	so, err := c.AllreduceF64(float64(st.StoredBytes), msg.Sum)
	if err != nil {
		panic(err)
	}
	return int64(sk), int64(so)
}

func TestIncrementalSkipsUnchangedPieces(t *testing.T) {
	fs := testFS()
	const state = 144*8 + 144*4
	o := stream.Options{PieceBytes: 200}
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 2})
		u.Fill(coordVal)
		ids.Fill(func(cd []int) int32 { return int32(cd[0]) })
		if _, err := WriteDRMSChained(fs, "ck.g0", c, sg, refs, o, ChainOptions{Codec: CodecRaw}); err != nil {
			panic(err)
		}

		// Nothing changed: the delta carries every piece forward and
		// stores none.
		st, err := WriteDRMSChained(fs, "ck.g1", c, sg, refs, o,
			ChainOptions{Prev: "ck.g0", Delta: true, Codec: CodecRaw})
		if err != nil {
			panic(err)
		}
		if skipped, stored := deltaBytes(c, st); skipped != state || stored != 0 {
			panic(fmt.Sprintf("skipped %d stored %d bytes, want the full array state carried forward", skipped, stored))
		}

		// Change one element of u: only pieces covering it are rewritten.
		first := u.Assigned().Coord(0, rangeset.ColMajor)
		u.Set(first, -1234)
		st, err = WriteDRMSChained(fs, "ck.g2", c, sg, refs, o,
			ChainOptions{Prev: "ck.g1", Delta: true, Codec: CodecRaw})
		if err != nil {
			panic(err)
		}
		skipped, stored := deltaBytes(c, st)
		if skipped == 0 {
			panic("no pieces carried forward after a one-element change")
		}
		if stored == 0 || skipped+stored != state {
			panic(fmt.Sprintf("skipped %d + stored %d of %d bytes: changed piece not rewritten exactly once", skipped, stored, state))
		}
	})
	// Every generation of the chain is fully valid.
	for _, gen := range []string{"ck.g0", "ck.g1", "ck.g2"} {
		if err := Verify(fs, gen, 0); err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
	}
	// And the newest restores the *new* value, reconfigured.
	mustRun(t, 3, func(c *msg.Comm) {
		g := rangeset.Box([]int{0, 0}, []int{11, 11})
		sg := seg.New()
		u, _ := array.New[float64](c, "u", mustBlock(g, []int{3, 1}))
		ids, _ := array.New[int32](c, "ids", mustBlock(g, []int{3, 1}))
		if _, _, err := ReadDRMSOpts(fs, "ck.g2", c, sg, []ArrayRef{Ref(u), Ref(ids)}, stream.Options{}, RestoreOptions{}); err != nil {
			panic(err)
		}
		if u.Mapped().Contains([]int{0, 0}) && u.At([]int{0, 0}) != -1234 {
			panic(fmt.Sprintf("incremental update lost: u[0,0] = %v", u.At([]int{0, 0})))
		}
	})
}

func TestIncrementalFallsBackOnPlanChange(t *testing.T) {
	fs := testFS()
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 1})
		u.Fill(coordVal)
		ids.Fill(func(cd []int) int32 { return 9 })
		if _, err := WriteDRMSChained(fs, "ck.g0", c, sg, refs, stream.Options{PieceBytes: 200},
			ChainOptions{Codec: CodecRaw}); err != nil {
			panic(err)
		}
		// Different piece size: the plan signatures differ, nothing is
		// carried forward, but the write still succeeds and verifies.
		st, err := WriteDRMSChained(fs, "ck.g1", c, sg, refs, stream.Options{PieceBytes: 333},
			ChainOptions{Prev: "ck.g0", Delta: true, Codec: CodecRaw})
		if err != nil {
			panic(err)
		}
		if skipped, _ := deltaBytes(c, st); skipped != 0 {
			panic("carried pieces forward despite plan change")
		}
	})
	if m, err := ReadMeta(fs, "ck.g1", 0); err != nil || len(m.Deps) != 0 {
		t.Fatalf("full write after a plan change depends on %v (err %v)", m.Deps, err)
	}
	if err := Verify(fs, "ck.g1", 0); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalWithoutBaseIsFullWrite(t *testing.T) {
	fs := testFS()
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 1})
		u.Fill(coordVal)
		ids.Fill(func(cd []int) int32 { return 1 })
		// A delta is requested, but the named base was never committed.
		st, err := WriteDRMSChained(fs, "fresh.g1", c, sg, refs, stream.Options{},
			ChainOptions{Prev: "fresh.g0", Delta: true, Codec: CodecRaw})
		if err != nil {
			panic(err)
		}
		if skipped, stored := deltaBytes(c, st); skipped != 0 || stored != 144*8+144*4 {
			panic(fmt.Sprintf("skipped %d stored %d bytes with no baseline", skipped, stored))
		}
	})
	if m, err := ReadMeta(fs, "fresh.g1", 0); err != nil || m.ChainLen != 0 || len(m.Deps) != 0 {
		t.Fatalf("baseless delta not demoted to an anchor: len %d deps %v (err %v)", m.ChainLen, m.Deps, err)
	}
	if err := Verify(fs, "fresh.g1", 0); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalRequiresPlanSig(t *testing.T) {
	// Metadata without plan signatures must not be trusted for per-piece
	// diffing — the delta falls back to a full write (and records fresh
	// signatures, so the next one carries pieces forward again).
	fs := testFS()
	o := stream.Options{PieceBytes: 200}
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 1})
		u.Fill(coordVal)
		ids.Fill(func(cd []int) int32 { return 3 })
		if _, err := WriteDRMSChained(fs, "ck.g0", c, sg, refs, o, ChainOptions{Codec: CodecRaw}); err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			m, err := ReadMeta(fs, "ck.g0", 0)
			if err != nil {
				panic(err)
			}
			if len(m.PlanSigs) != len(m.Arrays) {
				panic("checkpoint missing plan signatures")
			}
			m.PlanSigs = nil // simulate a pre-signature checkpoint
			if err := writeMeta(fs, "ck.g0", 0, m); err != nil {
				panic(err)
			}
		}
		c.Barrier()
		st, err := WriteDRMSChained(fs, "ck.g1", c, sg, refs, o,
			ChainOptions{Prev: "ck.g0", Delta: true, Codec: CodecRaw})
		if err != nil {
			panic(err)
		}
		if skipped, _ := deltaBytes(c, st); skipped != 0 {
			panic("trusted piece diffs without a matching plan signature")
		}
		// The full write restored the signatures, so the next delta
		// carries pieces forward again.
		st, err = WriteDRMSChained(fs, "ck.g2", c, sg, refs, o,
			ChainOptions{Prev: "ck.g1", Delta: true, Codec: CodecRaw})
		if err != nil {
			panic(err)
		}
		if skipped, _ := deltaBytes(c, st); skipped == 0 {
			panic("no pieces carried forward once signatures are back")
		}
	})
	if err := Verify(fs, "ck.g2", 0); err != nil {
		t.Fatal(err)
	}
}

// TestGatherLocSumsFrames: the location gather's frame round-trips every
// field, and a frame that is short, padded or holds a field out of range
// is an error — at the root from the decoder, at the peers from the
// collective the root abandoned — never a panic.
func TestGatherLocSumsFrames(t *testing.T) {
	locs := []PieceLoc{
		{PieceSum: PieceSum{Index: 3, Off: 900, CRC: 0xfeedfacecafebeef, Bytes: 300}, Gen: -1, Task: 2,
			FileOff: 1 << 33, FileBytes: 117, Codec: uint8(codec.Flate), StoredCRC: 42, Where: TierMem},
		{PieceSum: PieceSum{Index: 0, Bytes: 300}, Gen: 7},
	}
	sums := []stream.SectionSum{{Piece: 3, Task: 2, Bytes: 150, CRC: 9}, {Piece: 0, Task: 1, Bytes: 1 << 40, CRC: 1 << 63}}
	decode := func(f []byte) ([]PieceLoc, []stream.SectionSum, error) {
		l, s := make([][]PieceLoc, 1), make([][]stream.SectionSum, 1)
		_, err := locSumsFrames(true, f, l, s)
		return l[0], s[0], err
	}
	frame, _ := locSumsFrames(false, nil, [][]PieceLoc{locs}, [][]stream.SectionSum{sums})
	gotLocs, gotSums, err := decode(frame)
	if err != nil || fmt.Sprint(gotLocs) != fmt.Sprint(locs) || fmt.Sprint(gotSums) != fmt.Sprint(sums) {
		t.Fatalf("round trip: %v\n locs %v\n sums %v", err, gotLocs, gotSums)
	}
	empty, _ := locSumsFrames(false, nil, make([][]PieceLoc, 1), make([][]stream.SectionSum, 1))
	if l, s, err := decode(empty); err != nil || l != nil || s != nil || len(empty) != 2 {
		t.Fatalf("empty frame %x: %v %v %v", empty, l, s, err)
	}
	codecAt := 1 + 15 + 1 + 1 + 5 + 2 // the count; the first location's checksum, Gen, Task, FileOff, FileBytes
	ragged := [][]byte{
		{},                                       // no counts
		frame[:len(frame)-1],                     // last fingerprint cut short
		{2, 0, 0},                                // two locations announced, two bytes sent
		{0xff, 0xff, 0xff, 0x0f, 0},              // a count no frame could hold
		append([]byte{0x82, 0x00}, frame[1:]...), // a padded count
		append(append(frame[:codecAt:codecAt], 0x80, 0x04), frame[codecAt+1:]...), // codec 256
	}
	if frame[codecAt] != 2*byte(codec.Flate) {
		t.Fatalf("byte %d is %d, not the first location's codec", codecAt, frame[codecAt])
	}
	for i, f := range ragged {
		if _, _, err := decode(f); err == nil {
			t.Errorf("ragged frame %d (%x) decoded", i, f)
		}
	}

	// One rank's frame arrives ragged: the root fails the gather, and the
	// peers — who sent and moved on — fail the writer's next collective.
	const n = 3
	tr := msg.NewLocalTransport(n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := msg.NewComm(rank, n, tr)
			var err error
			if rank == 1 {
				multi, _ := locSumsFrames(false, nil, [][]PieceLoc{locs}, [][]stream.SectionSum{sums})
				_, err = c.Gather(0, multi[:len(multi)-1])
			} else {
				_, _, err = gatherLocSums(c, [][]PieceLoc{locs}, [][]stream.SectionSum{sums})
			}
			if err == nil {
				err = c.Barrier()
			}
			if err != nil {
				tr.Abort(msg.ErrRevoked)
			}
			errs[rank] = err
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d saw no error from a ragged gather frame", r)
		}
	}
	if !strings.Contains(fmt.Sprint(errs[0]), "gathering piece locations") {
		t.Errorf("root error = %v", errs[0])
	}
}
