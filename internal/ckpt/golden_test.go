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
// every reader refuses. golden_v3.pfs is the same checkpoint as metadata
// version 3 wrote it, its piece tables fixed-width records, and
// golden_v3_gob_segment.pfs the same again as the last build whose
// segment payload was a gob wrapper wrote it. drmsfsck -repair upgrades
// golden.pfs to golden_upgraded.pfs and the other three to golden_v4.pfs
// (its tests check that byte for byte), and the test restores those, so
// none of the four is ever regenerated — they are the upgrader's contract
// with checkpoints already on storage. golden_v4.pfs is the same
// checkpoint as this tree writes it; if that format must change,
// regenerate it deliberately with:
//
//	go test ./internal/ckpt -run Golden -regen-golden
//
// which rewrites the file only when the files it holds differ.
var regenGolden = flag.Bool("regen-golden", false, "rewrite testdata/golden_v4.pfs (never the goldens of earlier formats)")

var goldens = []struct {
	path     string
	upgraded string // a legacy checkpoint's upgraded form, which the test restores
}{
	{"testdata/golden.pfs", "testdata/golden_upgraded.pfs"},
	{"testdata/golden_v2.pfs", "testdata/golden_v4.pfs"},
	{"testdata/golden_v3_gob_segment.pfs", "testdata/golden_v4.pfs"},
	{"testdata/golden_v3.pfs", "testdata/golden_v4.pfs"},
	{"testdata/golden_v4.pfs", ""},
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
	old := pfs.NewSystem(pfs.DefaultConfig())
	if err := old.LoadFile(path); err == nil && sameStoredFiles(t, fs, old) {
		t.Log(path, "holds these files already: left as it is")
		return
	}
	if err := fs.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	t.Log("regenerated", path)
}

// sameStoredFiles reports whether a and b store the same files, by name,
// size and bytes. Snapshots are compared by their files: a snapshot's own
// bytes follow map order.
func sameStoredFiles(t testing.TB, a, b *pfs.System) bool {
	names := a.List("")
	if !slices.Equal(names, b.List("")) {
		return false
	}
	for _, name := range names {
		if !bytes.Equal(fileBytes(t, a, name), fileBytes(t, b, name)) {
			return false
		}
	}
	return true
}

func TestGoldenCheckpointStillRestores(t *testing.T) {
	if *regenGolden {
		writeGolden(t, currentGolden)
	}
	for _, g := range goldens {
		t.Run(g.path, func(t *testing.T) { restoreGolden(t, g.path, g.upgraded) })
	}
}

func restoreGolden(t *testing.T, path, upgraded string) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	if err := fs.LoadFile(path); err != nil {
		t.Fatalf("golden snapshot missing: %v", err)
	}
	if err := Verify(fs, "golden", 0); errors.Is(err, ErrLegacyFormat) != (upgraded != "") {
		t.Fatalf("golden checkpoint: %v, want legacy=%v", err, upgraded != "")
	}
	if upgraded != "" {
		fs = pfs.NewSystem(pfs.DefaultConfig())
		if err := fs.LoadFile(upgraded); err != nil {
			t.Fatalf("upgraded golden snapshot missing: %v", err)
		}
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

// TestGoldenMetaBytes pins version 4 at the byte: the stored golden_v4
// record is what encodeMeta writes for the Meta it decodes to.
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
		t.Fatalf("golden_v4's record re-encodes as %d other bytes (stored %d)", len(b), len(stored))
	}
}
