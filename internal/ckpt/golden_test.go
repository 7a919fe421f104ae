package ckpt

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"slices"
	"testing"

	"drms/internal/array"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/stream"
)

// The golden checkpoints pin the on-storage formats: each file under
// testdata holds a file-system snapshot containing one DRMS checkpoint
// of the same state, written by a known version of this code. Restores
// of archived state must keep working as the implementation evolves.
//
// golden.pfs is metadata v1, one raw stream file per array, and
// golden_v2.pfs metadata v2, the default configuration's chained raw
// anchor: both are gob records, which nothing in this tree writes and
// no reader decodes. The test upgrades them in memory (Upgrade,
// drmsfsck -repair) and restores the result, so neither file is ever
// regenerated — they are the upgrader's contract with checkpoints
// already on storage. golden_v3.pfs is the same checkpoint as this tree
// writes it; if that format must change, regenerate it deliberately
// with:
//
//	go test ./internal/ckpt -run Golden -regen-golden
var regenGolden = flag.Bool("regen-golden", false, "rewrite testdata/golden_v3.pfs (never the gob-era goldens)")

var goldens = []struct {
	path    string
	upgrade bool // stored as a gob record: restorable once upgraded
}{
	{"testdata/golden.pfs", true},
	{"testdata/golden_v2.pfs", true},
	{"testdata/golden_v3.pfs", false},
}

// currentGolden is the golden this tree writes.
var currentGolden = goldens[len(goldens)-1].path

func goldenFill(cd []int) float64 { return float64(cd[0]*100+cd[1]) + 0.5 }

func writeGolden(t *testing.T, path string) {
	t.Helper()
	if path != currentGolden {
		t.Fatalf("refusing to overwrite %s: no encoder in this tree writes its format", path)
	}
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 2})
		iter := 77
		sg.Register("iter", &iter)
		sg.Ctx = seg.Context{SOP: "golden", Step: 77}
		sg.Model = seg.SizeModel{SystemBytes: 10_000, PrivateBytes: 2_000}
		u.Fill(goldenFill)
		ids.Fill(func(cd []int) int32 { return int32(cd[0] - 2*cd[1]) })
		if _, err := WriteDRMS(fs, "golden", c, sg, refs, stream.Options{PieceBytes: 300}); err != nil {
			panic(err)
		}
	})
	if err := fs.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenCheckpointStillRestores(t *testing.T) {
	if *regenGolden {
		writeGolden(t, currentGolden)
		t.Log("regenerated", currentGolden, "— the gob-era goldens are stored input and stay as they are")
	}
	for _, g := range goldens {
		t.Run(g.path, func(t *testing.T) { restoreGolden(t, g.path, g.upgrade) })
	}
}

func restoreGolden(t *testing.T, path string, upgrade bool) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	if err := fs.LoadFile(path); err != nil {
		t.Fatalf("golden snapshot missing: %v", err)
	}
	if _, err := ReadMeta(fs, "golden", 0); errors.Is(err, ErrLegacyFormat) != upgrade {
		t.Fatalf("golden metadata: %v, want legacy=%v", err, upgrade)
	}
	if up, err := Upgrade(fs, "golden", 0); up != upgrade || err != nil {
		t.Fatalf("upgrade: %v %v, want %v", up, err, upgrade)
	}
	if m, err := ReadMeta(fs, "golden", 0); err != nil || m.Version != metaVersion {
		t.Fatalf("golden metadata version %d (err %v), want %d", m.Version, err, metaVersion)
	}
	// Integrity first: byte-level drift fails loudly.
	if err := Verify(fs, "golden", 0); err != nil {
		t.Fatalf("golden checkpoint no longer verifies: %v", err)
	}
	// Reconfigured restore on a task count the writer never used.
	g := rangeset.Box([]int{0, 0}, []int{11, 11})
	mustRun(t, 3, func(c *msg.Comm) {
		sg := seg.New()
		var iter int
		sg.Register("iter", &iter)
		u, _ := array.New[float64](c, "u", mustBlock(g, []int{3, 1}))
		ids, _ := array.New[int32](c, "ids", mustBlock(g, []int{3, 1}))
		m, _, err := ReadDRMSOpts(fs, "golden", c, sg, []ArrayRef{Ref(u), Ref(ids)}, stream.Options{}, RestoreOptions{})
		if err != nil {
			panic(err)
		}
		if m.Tasks != 4 || iter != 77 || sg.Ctx.SOP != "golden" {
			panic(fmt.Sprintf("golden metadata drifted: tasks=%d iter=%d ctx=%+v", m.Tasks, iter, sg.Ctx))
		}
		u.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if u.At(cd) != goldenFill(cd) {
				panic(fmt.Sprintf("golden u%v = %v", cd, u.At(cd)))
			}
		})
		ids.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if ids.At(cd) != int32(cd[0]-2*cd[1]) {
				panic("golden ids drifted")
			}
		})
	})
}

// TestStoredPlanSigsStillMatch: every committed fixture that carries plan
// signatures — golden_v3 as stored, the v1 rotation once upgraded — holds
// exactly what stream.PlanSig computes today under the options it was
// written with (300-byte pieces, four tasks, the default writers and
// order). So a delta against such a generation stays a delta: the v1
// rotation is extended by a fingerprinted generation job.g2, which the
// fixture's own signatures stand in for as the base of job.g3, and job.g3
// carries its clean pieces forward and restores bit-exact.
func TestStoredPlanSigsStillMatch(t *testing.T) {
	o := stream.Options{PieceBytes: 300}
	stored := func(t *testing.T, fs *pfs.System, prefix string) []string {
		t.Helper()
		m, err := ReadMeta(fs, prefix, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.PlanSigs) != len(m.Arrays) || len(m.Arrays) == 0 {
			t.Fatalf("%s: %d plan signatures for %d arrays", prefix, len(m.PlanSigs), len(m.Arrays))
		}
		for i, am := range m.Arrays {
			es := int(am.Bytes / int64(am.Global.Size()))
			if want := stream.PlanSig(am.Global, es, m.Tasks, o); m.PlanSigs[i] != want {
				t.Fatalf("%s array %q: stored plan signature %q, today %q", prefix, am.Name, m.PlanSigs[i], want)
			}
		}
		return m.PlanSigs
	}
	fs := pfs.NewSystem(pfs.DefaultConfig())
	if err := fs.LoadFile(currentGolden); err != nil {
		t.Fatal(err)
	}
	stored(t, fs, "golden")

	fs = testFS()
	loadUpgradedV1Rotation(t, fs)
	stored(t, fs, "job.g0")
	sigs := stored(t, fs, "job.g1")
	writeChainGen(t, fs, "job.g2", ChainOptions{Prev: "job.g1", Delta: true, Codec: CodecRaw}, 1, 4, []int{2, 2})
	base, err := ReadMeta(fs, "job.g2", 0)
	if err != nil {
		t.Fatal(err)
	}
	base.PlanSigs = sigs
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 2})
		iter := 2
		sg.Register("iter", &iter)
		uf, idf := chainFill(2)
		u.Fill(uf)
		ids.Fill(idf)
		st, err := WriteDRMSChained(fs, "job.g3", c, sg, refs, o,
			ChainOptions{Prev: "job.g2", Delta: true, Codec: CodecRaw, PrevMeta: &base})
		if err != nil {
			panic(err)
		}
		if skipped, _ := deltaBytes(c, st); skipped == 0 {
			panic("job.g3 carried nothing forward: the stored signatures made it an anchor")
		}
	})
	checkChainRestore(t, fs, "job.g3", 2, 4, []int{2, 2}, 300)
}

// TestGoldenMetaBytes pins version 3 at the byte. The stored golden_v3
// record is what encodeMeta writes for the Meta it decodes to. And
// golden_v2 — the same checkpoint as a gob record — upgrades, past a
// crash that left a torn temporary beside its meta, to golden_v3's
// record byte for byte, beside payload files the upgrade did not touch.
func TestGoldenMetaBytes(t *testing.T) {
	cur := pfs.NewSystem(pfs.DefaultConfig())
	if err := cur.LoadFile(currentGolden); err != nil {
		t.Fatal(err)
	}
	stored := metaBytes(t, cur, "golden")
	m, err := ReadMeta(cur, "golden", 0)
	if err != nil {
		t.Fatal(err)
	}
	if b := encodeMeta(&m); !bytes.Equal(b, stored) {
		t.Fatalf("golden_v3's record re-encodes as %d other bytes (stored %d)", len(b), len(stored))
	}

	old := pfs.NewSystem(pfs.DefaultConfig())
	if err := old.LoadFile(goldens[1].path); err != nil {
		t.Fatal(err)
	}
	if err := old.WriteAt(0, metaFile("golden")+".tmp", []byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMeta(old, "golden", 0); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("after the crash: %v, want the gob meta in charge", err)
	}
	if up, err := Upgrade(old, "golden", 0); !up || err != nil {
		t.Fatalf("upgrade of golden_v2: %v, %v", up, err)
	}
	files := cur.List("golden.")
	if got := old.List("golden."); !slices.Equal(got, files) {
		t.Fatalf("upgraded golden_v2 holds %v, golden_v3 %v", got, files)
	}
	for _, f := range files {
		if !bytes.Equal(fileBytes(t, old, f), fileBytes(t, cur, f)) {
			t.Errorf("%s differs between upgraded golden_v2 and golden_v3", f)
		}
	}
}
