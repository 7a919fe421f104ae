package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"drms/internal/array"
	"drms/internal/ckpt"
	"drms/internal/dist"
	"drms/internal/drms"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/stream"
)

// buildSnapshot runs a tiny application that commits gens rotated
// checkpoint generations under prefix, giving the checker a realistic
// rotation to walk.
func buildSnapshot(t *testing.T, fs *pfs.System, prefix string, gens int) {
	t.Helper()
	err := drms.Run(drms.Config{Tasks: 2, FS: fs, Keep: gens}, func(tk *drms.Task) error {
		iter := 0
		tk.Register("iter", &iter)
		for iter < gens {
			if _, _, err := tk.ReconfigCheckpoint(prefix); err != nil {
				return err
			}
			iter++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func corrupt(t *testing.T, fs *pfs.System, name string) {
	t.Helper()
	if err := fs.WriteAt(0, name, []byte{0xba, 0xad, 0xf0, 0x0d}, 4); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoverPrefixesCollapsesRotations(t *testing.T) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	buildSnapshot(t, fs, "alpha", 2)
	buildSnapshot(t, fs, "beta", 1)
	got := discoverPrefixes(fs)
	want := []string{"alpha", "beta"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("discoverPrefixes = %v, want %v", got, want)
	}
}

func TestCheckPrefixClean(t *testing.T) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	buildSnapshot(t, fs, "ck", 3)
	dirty := false
	if code := checkPrefix(fs, nil, "ck", false, &dirty); code != exitClean {
		t.Fatalf("clean rotation classified %d, want %d", code, exitClean)
	}
	if dirty {
		t.Fatal("clean check marked the snapshot dirty")
	}
}

func TestCheckPrefixFallbackAndRepair(t *testing.T) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	buildSnapshot(t, fs, "ck", 3)
	corrupt(t, fs, "ck.g2.seg")

	// Report-only: classified repairable, nothing moved.
	dirty := false
	if code := checkPrefix(fs, nil, "ck", false, &dirty); code != exitRepaired {
		t.Fatalf("corrupt newest classified %d, want %d", code, exitRepaired)
	}
	if dirty || len(fs.List("ck.g2.bad.")) != 0 {
		t.Fatal("report-only run quarantined files")
	}

	// Repair: the corrupt generation leaves the committed namespace and
	// the rotation comes back clean, falling back to g1.
	if code := checkPrefix(fs, nil, "ck", true, &dirty); code != exitRepaired {
		t.Fatalf("repair run classified %d, want %d", code, exitRepaired)
	}
	if !dirty {
		t.Fatal("repair did not mark the snapshot dirty")
	}
	if len(fs.List("ck.g2.bad.")) == 0 {
		t.Fatal("repair left no quarantined files")
	}
	if code := checkPrefix(fs, nil, "ck", false, &dirty); code != exitClean {
		t.Fatal("rotation not clean after repair")
	}
	if _, p, ok := (ckpt.Rotation{Base: "ck"}).Latest(fs); !ok || p != "ck.g1" {
		t.Fatalf("fallback generation = %q ok=%v, want ck.g1", p, ok)
	}
}

// stdout runs f and returns what it printed.
func stdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCheckPrefixAcrossMetadataVersions walks a rotation the v1 encoder
// wrote (the stored job.g0 and job.g1: one raw stream file per array).
// Without -repair it is reported as needing an upgrade; -repair upgrades
// both generations in place, the writer continues the rotation, and a
// corrupt newest generation falls back to the upgraded job.g1, which
// restores its state bit-exact.
func TestCheckPrefixAcrossMetadataVersions(t *testing.T) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	if err := fs.LoadFile("../../internal/ckpt/testdata/v1_rotation.pfs"); err != nil {
		t.Fatal(err)
	}
	dirty := false
	var code int
	out := stdout(t, func() { code = checkPrefix(fs, nil, "job", false, &dirty) })
	if code != exitUnrecoverable || dirty || !strings.Contains(out, "-repair") {
		t.Fatalf("legacy rotation classified %d dirty %v, want %d and -repair named:\n%s",
			code, dirty, exitUnrecoverable, out)
	}
	if code := checkPrefix(fs, nil, "job", true, &dirty); code != exitRepaired || !dirty {
		t.Fatalf("upgrade classified %d dirty %v, want %d", code, dirty, exitRepaired)
	}
	for _, g := range []string{"job.g0", "job.g1"} {
		if m, err := ckpt.ReadMeta(fs, g, 0); err != nil || m.Version != 3 {
			t.Fatalf("%s after -repair: version %d, %v", g, m.Version, err)
		}
	}
	if code := checkPrefix(fs, nil, "job", false, &dirty); code != exitClean {
		t.Fatalf("upgraded rotation classified %d, want %d", code, exitClean)
	}

	err := drms.Run(drms.Config{Tasks: 2, FS: fs, Keep: 3}, func(tk *drms.Task) error {
		_, _, err := tk.ReconfigCheckpoint("job")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if gens := generations(fs, "job"); len(gens) != 3 || gens[2] != "job.g2" {
		t.Fatalf("generations after the writer continued: %v", gens)
	}
	corrupt(t, fs, "job.g2.seg")
	if code := checkPrefix(fs, nil, "job", true, &dirty); code != exitRepaired {
		t.Fatalf("repair classified %d, want %d", code, exitRepaired)
	}
	if _, p, ok := (ckpt.Rotation{Base: "job"}).Latest(fs); !ok || p != "job.g1" {
		t.Fatalf("fallback generation = %q ok=%v, want the upgraded job.g1", p, ok)
	}
	restoreStoredRotation(t, fs, "job.g1", 1)
}

// TestCheckPrefixUpgradesStateStore: -repair turns a coordinator store an
// earlier build saved — gob metadata over a delta chain of gob images —
// into one the coordinator loads: the metadata upgraded, and the head's
// table committed as a framed anchor, g3. A second pass has nothing to do.
// An application rotation is left alone.
func TestCheckPrefixUpgradesStateStore(t *testing.T) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	if err := fs.LoadFile("../../internal/ckpt/testdata/rcstate_deltas.pfs"); err != nil {
		t.Fatal(err)
	}
	buildSnapshot(t, fs, "job", 2)
	dirty := false
	var code int
	out := stdout(t, func() { code = checkPrefix(fs, nil, "rcstate", true, &dirty) })
	if code != exitRepaired || !dirty || !strings.Contains(out, "framed anchor rcstate.g3") {
		t.Fatalf("repair classified %d dirty %v, want %d:\n%s", code, dirty, exitRepaired, out)
	}
	records, g, _, ok, err := (&ckpt.StateStore{Base: "rcstate"}).Load(fs)
	if !ok || err != nil || g != 3 || len(records) != 2 || string(records["a"]) != "v1" || string(records["b"]) != "v2" {
		t.Fatalf("Load after -repair: gen %d ok %v, %q, %v", g, ok, records, err)
	}
	for _, p := range []string{"rcstate", "job"} {
		dirty = false
		if code := checkPrefix(fs, nil, p, true, &dirty); code != exitClean || dirty {
			t.Fatalf("%s: second pass classified %d dirty %v, want %d", p, code, dirty, exitClean)
		}
	}
}

// restoreStoredRotation restores generation g of the stored v1 rotation
// on 3 tasks and checks it holds step's state: "iter" = step, ids all 7,
// u the coordinate value with column step%12 raised by 1000·(step+1).
func restoreStoredRotation(t *testing.T, fs *pfs.System, g string, step int) {
	t.Helper()
	err := msg.Run(3, func(c *msg.Comm) error {
		box := rangeset.Box([]int{0, 0}, []int{11, 11})
		d, err := dist.Block(box, []int{3, 1})
		if err != nil {
			return err
		}
		u, err := array.New[float64](c, "u", d)
		if err != nil {
			return err
		}
		ids, err := array.New[int32](c, "ids", d)
		if err != nil {
			return err
		}
		sg := seg.New()
		iter := -1
		sg.Register("iter", &iter)
		if _, _, err := ckpt.ReadDRMSOpts(fs, g, c, sg, []ckpt.ArrayRef{ckpt.Ref(u), ckpt.Ref(ids)}, stream.Options{}, ckpt.RestoreOptions{}); err != nil {
			return err
		}
		if iter != step {
			return fmt.Errorf("iter = %d, want %d", iter, step)
		}
		var bad error
		u.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			want := float64(cd[0]*100 + cd[1] + 1)
			if cd[1] == step%12 {
				want += 1000 * float64(step+1)
			}
			if got := u.At(cd); math.Float64bits(got) != math.Float64bits(want) && bad == nil {
				bad = fmt.Errorf("u%v = %v, want %v", cd, got, want)
			}
			if ids.At(cd) != 7 && bad == nil {
				bad = fmt.Errorf("ids%v = %d, want 7", cd, ids.At(cd))
			}
		})
		return bad
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckPrefixUnrecoverable(t *testing.T) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	buildSnapshot(t, fs, "ck", 2)
	corrupt(t, fs, "ck.g0.seg")
	corrupt(t, fs, "ck.g1.seg")
	dirty := false
	if code := checkPrefix(fs, nil, "ck", false, &dirty); code != exitUnrecoverable {
		t.Fatalf("all-corrupt rotation classified %d, want %d", code, exitUnrecoverable)
	}
	if code := checkPrefix(fs, nil, "missing", false, &dirty); code != exitUnrecoverable {
		t.Fatalf("missing prefix classified %d, want %d", code, exitUnrecoverable)
	}
}

// buildChainedSnapshot commits a short delta chain: an array updated
// sparsely between checkpoints, written in the chained format.
func buildChainedSnapshot(t *testing.T, fs *pfs.System, prefix string, gens int) {
	t.Helper()
	err := drms.Run(drms.Config{Tasks: 2, FS: fs, Keep: gens,
		AnchorEvery: gens + 1, Codec: ckpt.CodecFlate,
		Stream: stream.Options{PieceBytes: 64}},
		func(tk *drms.Task) error {
			g := rangeset.NewSlice(rangeset.Span(0, 63))
			d, err := dist.Block(g, []int{tk.Tasks()})
			if err != nil {
				return err
			}
			u, err := drms.NewArray[float64](tk, "u", d)
			if err != nil {
				return err
			}
			iter := 0
			tk.Register("iter", &iter)
			u.Fill(func(c []int) float64 { return float64(c[0]) })
			for iter < gens {
				if _, _, err := tk.ReconfigCheckpoint(prefix); err != nil {
					return err
				}
				first := u.Assigned().Coord(0, rangeset.ColMajor)
				u.Set(first, float64(iter)*2.5)
				iter++
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSquashPrefixFoldsChainIntoAnchor(t *testing.T) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	buildChainedSnapshot(t, fs, "ck", 3)

	m, err := ckpt.ReadMeta(fs, "ck.g2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Deps) == 0 {
		t.Fatal("newest generation has no chain to squash")
	}

	dirty := false
	if !squashPrefix(fs, "ck", &dirty) {
		t.Fatal("squash of a clean chain failed")
	}
	if !dirty {
		t.Fatal("squash did not mark the snapshot dirty")
	}
	gens := (ckpt.Rotation{Base: "ck"}).Generations(fs)
	if len(gens) != 1 {
		t.Fatalf("generations after squash = %v, want exactly the new anchor", gens)
	}
	sm, err := ckpt.ReadMeta(fs, gens[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if sm.ChainLen != 0 || len(sm.Deps) != 0 {
		t.Fatalf("squashed meta: len %d deps %v, want self-contained anchor", sm.ChainLen, sm.Deps)
	}
	if err := ckpt.Verify(fs, gens[0], 0); err != nil {
		t.Fatalf("squashed anchor fails verification: %v", err)
	}

	// Idempotent: a second squash finds nothing to fold.
	dirty = false
	if !squashPrefix(fs, "ck", &dirty) || dirty {
		t.Fatal("second squash was not a clean no-op")
	}
}

// buildTieredSnapshot commits a rotation with the hot in-memory tier
// on and multi-level rotation (DemoteEvery 2): the middle generation
// is diskless, its payloads living only in tier.
func buildTieredSnapshot(t *testing.T, fs *pfs.System, tier *ckpt.MemTier, prefix string, gens int) {
	t.Helper()
	err := drms.Run(drms.Config{Tasks: 2, FS: fs, Keep: gens,
		AnchorEvery: gens + 1, Codec: ckpt.CodecRaw,
		Tier: tier, Replicas: 1, DemoteEvery: 2,
		Stream: stream.Options{PieceBytes: 64}},
		func(tk *drms.Task) error {
			g := rangeset.NewSlice(rangeset.Span(0, 63))
			d, err := dist.Block(g, []int{tk.Tasks()})
			if err != nil {
				return err
			}
			u, err := drms.NewArray[float64](tk, "u", d)
			if err != nil {
				return err
			}
			iter := 0
			tk.Register("iter", &iter)
			u.Fill(func(c []int) float64 { return float64(c[0]) })
			for iter < gens {
				if _, _, err := tk.ReconfigCheckpoint(prefix); err != nil {
					return err
				}
				first := u.Assigned().Coord(0, rangeset.ColMajor)
				u.Set(first, float64(iter)*2.5)
				iter++
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckPrefixMemoryResidentNeedsTier(t *testing.T) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	tier := ckpt.NewMemTier()
	buildTieredSnapshot(t, fs, tier, "ck", 3)

	// DemoteEvery 2: g0 writes through (first of the prefix), g1 is
	// diskless, g2 writes through again.
	m, err := ckpt.ReadMeta(fs, "ck.g1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.SegWhere != ckpt.TierMem {
		t.Fatalf("ck.g1 SegWhere = %d, want diskless (TierMem)", m.SegWhere)
	}
	if got := genTier(&m); got == "pfs" {
		t.Fatalf("genTier(ck.g1) = %q, want mem or mixed", got)
	}
	m0, err := ckpt.ReadMeta(fs, "ck.g0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := genTier(&m0); got != "pfs" {
		t.Fatalf("genTier(ck.g0) = %q, want pfs (write-through anchor)", got)
	}

	// With the tier, the whole rotation verifies, diskless generation
	// included; without it, the diskless generation is corrupt but the
	// write-through neighbors still give a fallback.
	dirty := false
	if code := checkPrefix(fs, tier, "ck", false, &dirty); code != exitClean {
		t.Fatalf("tiered rotation with live tier classified %d, want %d", code, exitClean)
	}
	if code := checkPrefix(fs, nil, "ck", false, &dirty); code != exitRepaired {
		t.Fatalf("tiered rotation without tier classified %d, want %d", code, exitRepaired)
	}
}

func TestTierSnapshotRoundTripVerifiesOffline(t *testing.T) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	tier := ckpt.NewMemTier()
	buildTieredSnapshot(t, fs, tier, "ck", 3)

	path := t.TempDir() + "/tier.snap"
	if err := tier.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ckpt.LoadTierFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The diskless generation's chain verifies against the reloaded
	// snapshot alone — no disk piece payloads touched.
	dirty := false
	if code := checkPrefix(fs, loaded, "ck", false, &dirty); code != exitClean {
		t.Fatalf("rotation against reloaded tier classified %d, want %d", code, exitClean)
	}
	// The diskless generation has resident payloads with at least one
	// surviving replica each.
	ents := loaded.Entries("ck.g1")
	if len(ents) == 0 {
		t.Fatal("no tier entries for the diskless generation after round trip")
	}
	for _, e := range ents {
		if e.Replicas < 1 {
			t.Fatalf("payload (%q,%d) has %d replicas after round trip", e.Arr, e.Index, e.Replicas)
		}
	}
	// The listing runs clean over a snapshot (smoke: no panic on a
	// rotation that spans tiers, with and without the tier loaded).
	listTiers(fs, loaded, "ck")
	listTiers(fs, nil, "ck")
}
