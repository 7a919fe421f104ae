package legacy

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"drms/internal/array"
	"drms/internal/ckpt"
	"drms/internal/coord"
	"drms/internal/crc"
	"drms/internal/dist"
	"drms/internal/drms"
	"drms/internal/frame"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/stream"
)

// The fixtures of earlier formats are stored input: no code in the tree
// writes them, and nothing regenerates them. What -repair makes of each
// is committed beside it, so the product's tests read upgraded stores
// without linking this package; if the upgrade's output must change,
// rewrite those (and only those) deliberately with:
//
//	go test ./cmd/drmsfsck/internal/legacy -run Fixtures -regen-upgraded
//
// which rewrites a fixture only when the files it holds differ.
var regen = flag.Bool("regen-upgraded", false, "rewrite the *_upgraded.pfs fixtures (never the originals)")

const (
	ckptData  = "../../../../internal/ckpt/testdata/"
	coordData = "../../../../internal/coord/testdata/"
)

// fixtures pairs each original of an earlier format with what -repair
// makes of it. golden_v2 is the checkpoint golden_v4 holds, as a gob
// record, golden_v3 the same checkpoint as metadata version 3 wrote it,
// and golden_v3_gob_segment the same again as the last build with a gob
// segment wrote it: all three upgrade to golden_v4 itself. rcstate_v3 is
// what -repair made of rcstate_parent while metadata was version 3, and
// upgrades to what it makes of it now.
var fixtures = []struct{ orig, upgraded string }{
	{ckptData + "golden.pfs", ckptData + "golden_upgraded.pfs"},
	{ckptData + "golden_v2.pfs", ckptData + "golden_v4.pfs"},
	{ckptData + "golden_v3.pfs", ckptData + "golden_v4.pfs"},
	{ckptData + "golden_v3_gob_segment.pfs", ckptData + "golden_v4.pfs"},
	{ckptData + "v1_rotation.pfs", ckptData + "v1_rotation_upgraded.pfs"},
	{ckptData + "rcstate_deltas.pfs", ckptData + "rcstate_deltas_upgraded.pfs"},
	{coordData + "rcstate_parent.pfs", coordData + "rcstate_parent_upgraded.pfs"},
	{coordData + "rcstate_v3.pfs", coordData + "rcstate_parent_upgraded.pfs"},
}

func load(t testing.TB, path string) *pfs.System {
	t.Helper()
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	if err := fs.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	return fs
}

func fileBytes(t testing.TB, fs *pfs.System, name string) []byte {
	t.Helper()
	sz, err := fs.Size(name)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, sz)
	if err := fs.ReadAt(0, name, b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// sameFiles fails unless got stores exactly want's files under prefix,
// byte for byte (fileDiffs).
func sameFiles(t *testing.T, got, want *pfs.System, prefix string) {
	t.Helper()
	for _, d := range fileDiffs(t, got, want, prefix) {
		t.Error(d)
	}
}

// fileDiffs lists how got's files under prefix differ from want's, by
// name, size and bytes. Snapshots are compared by their files: the
// snapshot encoding's map order varies.
func fileDiffs(t testing.TB, got, want *pfs.System, prefix string) []string {
	t.Helper()
	if g, w := got.List(prefix), want.List(prefix); !slices.Equal(g, w) {
		return []string{fmt.Sprintf("files %v, want %v", g, w)}
	}
	var diffs []string
	for _, name := range want.List(prefix) {
		if !bytes.Equal(fileBytes(t, got, name), fileBytes(t, want, name)) {
			diffs = append(diffs, name+" differs")
		}
	}
	return diffs
}

// repair runs what drmsfsck -repair runs on every checkpoint in fs: Upgrade
// of each committed generation and UpgradeStore of each rotation, the
// stores first when storeFirst. It reports whether either changed fs.
func repair(t *testing.T, fs *pfs.System, storeFirst bool) (changed bool) {
	t.Helper()
	var prefixes []string
	bases := map[string]bool{}
	for _, name := range fs.List("") {
		if p, ok := strings.CutSuffix(name, ".meta"); ok && !strings.Contains(p, ".bad") {
			prefixes = append(prefixes, p)
			if b, _, ok := ckpt.GenOf(p); ok {
				bases[b] = true
			}
		}
	}
	metas := func() {
		for _, p := range prefixes {
			up, err := Upgrade(fs, p, 0)
			if err != nil {
				t.Fatalf("upgrade %s: %v", p, err)
			}
			changed = changed || up
		}
	}
	stores := func() {
		for b := range bases {
			g, q, err := UpgradeStore(fs, b)
			if err != nil || len(q) != 0 {
				t.Fatalf("upgrade store %s: gen %d quarantined %v, %v", b, g, q, err)
			}
			changed = changed || g >= 0
		}
	}
	if storeFirst {
		stores()
		metas()
	} else {
		metas()
		stores()
	}
	return changed
}

// TestUpgradeMatchesFixtures: -repair, whichever half runs first, turns
// each gob-era original into its committed upgraded fixture, file for
// file and byte for byte; it leaves every payload file it keeps as it
// was, but for an application's segment, which it re-frames; and a second
// pass finds nothing to do.
func TestUpgradeMatchesFixtures(t *testing.T) {
	for _, f := range fixtures {
		for _, storeFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/storeFirst=%v", f.orig[strings.LastIndex(f.orig, "/")+1:], storeFirst), func(t *testing.T) {
				fs, orig := load(t, f.orig), load(t, f.orig)
				if !repair(t, fs, storeFirst) {
					t.Fatal("nothing upgraded")
				}
				if *regen && !storeFirst && strings.HasSuffix(f.upgraded, "_upgraded.pfs") {
					old := pfs.NewSystem(pfs.DefaultConfig())
					if err := old.LoadFile(f.upgraded); err != nil || len(fileDiffs(t, fs, old, "")) > 0 {
						if err := fs.SaveFile(f.upgraded); err != nil {
							t.Fatal(err)
						}
						t.Log("regenerated", f.upgraded)
					}
				}
				sameFiles(t, fs, load(t, f.upgraded), "")
				for _, name := range orig.List("") {
					if !strings.HasSuffix(name, ".meta") && !appSegment(t, fs, name) && fs.Exists(name) &&
						!bytes.Equal(fileBytes(t, fs, name), fileBytes(t, orig, name)) {
						t.Errorf("the upgrade changed %s", name)
					}
				}
				if repair(t, fs, storeFirst) {
					t.Fatal("a second pass changed the upgraded store")
				}
			})
		}
	}
}

// appSegment reports whether name is the segment file of an application
// checkpoint in fs, one whose metadata stamps a task count.
func appSegment(t *testing.T, fs *pfs.System, name string) bool {
	t.Helper()
	prefix, ok := strings.CutSuffix(name, ".seg")
	if i := strings.LastIndex(prefix, ".task"); ok && i >= 0 {
		prefix = prefix[:i]
	}
	m, err := ckpt.ReadMeta(fs, prefix, 0)
	return ok && err == nil && m.Ctx.Tasks > 0
}

// TestUpgradeIdempotent: the first Upgrade turns each stored v1
// generation into a verified version 3 one and drops the v1 stream files;
// the second finds nothing to do.
func TestUpgradeIdempotent(t *testing.T) {
	fs := load(t, ckptData+"v1_rotation.pfs")
	for _, g := range []string{"job.g0", "job.g1"} {
		if up, err := Upgrade(fs, g, 0); !up || err != nil {
			t.Fatalf("upgrade of %s: upgraded %v, %v", g, up, err)
		}
		for _, f := range []string{streamFile(g, "ids"), streamFile(g, "u")} {
			if fs.Exists(f) {
				t.Fatalf("%s survived the upgrade", f)
			}
		}
		if up, err := Upgrade(fs, g, 0); up || err != nil {
			t.Fatalf("second upgrade of %s: upgraded %v, %v", g, up, err)
		}
		if err := ckpt.Verify(fs, g, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpgradeResumesAfterCrashBeforeCommit leaves the storage as a crash
// between the copies and the meta commit would: a piece file half copied,
// a meta temporary half written, the gob meta still in charge. A rerun
// finishes the upgrade as if there had been no crash.
func TestUpgradeResumesAfterCrashBeforeCommit(t *testing.T) {
	for _, tc := range []struct{ orig, upgraded, prefix string }{
		{ckptData + "v1_rotation.pfs", ckptData + "v1_rotation_upgraded.pfs", "job.g1"},
		{ckptData + "golden_v2.pfs", ckptData + "golden_v4.pfs", "golden"},
		{ckptData + "golden_v3.pfs", ckptData + "golden_v4.pfs", "golden"},
	} {
		fs := load(t, tc.orig)
		if fs.Exists(streamFile(tc.prefix, "u")) {
			half := fileBytes(t, fs, streamFile(tc.prefix, "u"))[:100]
			if err := fs.WriteAt(0, ckpt.PieceFile(tc.prefix, "u", 0), half, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.WriteAt(0, tc.prefix+".meta.tmp", []byte{1, 2, 3}, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ckpt.ReadMeta(fs, tc.prefix, 0); !errors.Is(err, ckpt.ErrLegacyFormat) {
			t.Fatalf("after the crash: %v, want the gob meta in charge", err)
		}
		if up, err := Upgrade(fs, tc.prefix, 0); !up || err != nil {
			t.Fatalf("rerun: upgraded %v, %v", up, err)
		}
		sameFiles(t, fs, load(t, tc.upgraded), tc.prefix+".")
	}
}

// TestUpgradeRefusesCorruptArray: a damaged v1 stream file fails the
// upgrade's verification, and the v1 files stay for diagnosis.
func TestUpgradeRefusesCorruptArray(t *testing.T) {
	fs := load(t, ckptData+"v1_rotation.pfs")
	const g = "job.g0"
	if err := fs.WriteAt(0, streamFile(g, "u"), []byte{0xff, 0xfe}, 200); err != nil {
		t.Fatal(err)
	}
	up, err := Upgrade(fs, g, 0)
	var ce *ckpt.CorruptError
	if up || !errors.As(err, &ce) || ce.Piece < 0 {
		t.Fatalf("upgrade of a corrupt generation: upgraded %v, %v", up, err)
	}
	for _, f := range []string{streamFile(g, "ids"), streamFile(g, "u")} {
		if !fs.Exists(f) {
			t.Fatalf("%s removed by a failed upgrade", f)
		}
	}
}

// TestUpgradeReframesSegments: a DRMS checkpoint whose segment is not
// padded and an SPMD one whose per-task segments are, their payloads
// rewritten as the gob records an earlier build wrote under version 3
// metadata, are refused as legacy; Upgrade gives back every file this
// tree committed, byte for byte — the SPMD tasks' local sections after
// the frame, the padding to the size model — and both restore.
func TestUpgradeReframesSegments(t *testing.T) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	const tasks, step = 2, 5
	models := map[string]seg.SizeModel{"dr": {}, "sp": {PrivateBytes: 4096}}
	var mu sync.Mutex
	framed := map[string]int{} // segment file -> its framed payload's bytes
	run := func(write bool) {
		t.Helper()
		err := msg.Run(tasks, func(c *msg.Comm) error {
			d, err := dist.Block(rangeset.NewSlice(rangeset.Span(0, 63)), []int{tasks})
			if err != nil {
				return err
			}
			u, err := array.New[float64](c, "u", d)
			if err != nil {
				return err
			}
			val := func(cd []int) float64 { return float64(cd[0]) + 0.5 }
			for _, prefix := range []string{"dr", "sp"} {
				sg, refs, n := seg.New(), []ckpt.ArrayRef{ckpt.Ref(u)}, -1
				sg.Register("iter", &n)
				if !write {
					u.Fill(func([]int) float64 { return 0 })
					if prefix == "dr" {
						_, _, err = ckpt.ReadDRMSOpts(fs, prefix, c, sg, refs, stream.Options{}, ckpt.RestoreOptions{})
					} else {
						_, _, err = ckpt.ReadSPMD(fs, prefix, c, sg, refs, stream.Options{})
					}
					if err != nil || n != step || sg.Ctx.SOP != prefix || sg.Model != models[prefix] {
						return fmt.Errorf("restore of upgraded %s: iter %d ctx %+v model %+v, %v", prefix, n, sg.Ctx, sg.Model, err)
					}
					var bad error
					u.Mapped().Each(rangeset.ColMajor, func(cd []int) {
						if u.At(cd) != val(cd) {
							bad = fmt.Errorf("%s: u%v = %v", prefix, cd, u.At(cd))
						}
					})
					if bad != nil {
						return bad
					}
					continue
				}
				n, sg.Ctx, sg.Model = step, seg.Context{SOP: prefix, Step: step}, models[prefix]
				u.Fill(val)
				name := prefix + ".seg"
				if prefix == "dr" {
					_, err = ckpt.WriteDRMS(fs, prefix, c, sg, refs, stream.Options{})
				} else {
					_, err = ckpt.WriteSPMD(fs, prefix, c, sg, refs, stream.Options{})
					name = fmt.Sprintf("sp.task%d.seg", c.Rank())
				}
				payload, perr := sg.Encode()
				if err = cmp.Or(err, perr); err != nil {
					return err
				}
				mu.Lock()
				framed[name] = len(payload)
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run(true)
	want := map[string][]byte{}
	for _, name := range fs.List("") {
		want[name] = fileBytes(t, fs, name)
	}
	for name, n := range framed {
		prefix, _, _ := strings.Cut(name, ".")
		m, err := ckpt.ReadMeta(fs, prefix, 0)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := gobBytes(step)
		if err == nil {
			blob, err = gobBytes(struct {
				Ctx   seg.Context
				Model seg.SizeModel
				Names []string
				Blobs [][]byte
			}{m.Ctx, models[prefix], []string{"iter"}, [][]byte{blob}})
		}
		if err != nil {
			t.Fatal(err)
		}
		file := want[name]
		blob = append(blob, file[8+n:8+binary.LittleEndian.Uint64(file)]...)
		file = binary.LittleEndian.AppendUint64(nil, uint64(len(blob)))
		file = append(append(file, blob...), make([]byte, max(16, models[prefix].Total()-int64(len(blob)))-8)...)
		fs.Create(name)
		if err := fs.WriteAt(0, name, file, 0); err != nil {
			t.Fatal(err)
		}
		task := 0
		fmt.Sscanf(name, "sp.task%d.seg", &task)
		m.SegBytes[task], m.SegCRC[task] = int64(len(file)), crc.Checksum(file)
		if err := ckpt.CommitMeta(fs, prefix, 0, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, prefix := range []string{"dr", "sp"} {
		if err := ckpt.Verify(fs, prefix, 0); !errors.Is(err, ckpt.ErrLegacyFormat) {
			t.Fatalf("%s with gob segments: %v, want ErrLegacyFormat", prefix, err)
		}
		if up, err := Upgrade(fs, prefix, 0); !up || err != nil {
			t.Fatalf("upgrade %s: upgraded %v, %v", prefix, up, err)
		}
		if up, err := Upgrade(fs, prefix, 0); up || err != nil {
			t.Fatalf("second upgrade of %s: upgraded %v, %v", prefix, up, err)
		}
	}
	if names := fs.List(""); len(names) != len(want) {
		t.Fatalf("files %v after the upgrade, want %d", names, len(want))
	}
	for name, b := range want {
		if !bytes.Equal(fileBytes(t, fs, name), b) {
			t.Errorf("%s: not the bytes this tree committed", name)
		}
	}
	run(false)
}

// GobEncode writes the wire form gob-era metadata stored: a regular
// triple, or an index list.
func (r gobRange) GobEncode() ([]byte, error) {
	w := struct {
		Regular    bool
		Lo, Hi, St int
		Idx        []int
	}{Regular: true, Lo: 0, Hi: -1, St: 1}
	if !r.r.Empty() && !r.r.IsRegular() {
		w.Regular, w.Idx = false, r.r.Elements()
	} else if !r.r.Empty() {
		w.Lo, w.Hi, w.St = r.r.Bounds()
	}
	return gobBytes(w)
}

func (s gobSlice) GobEncode() ([]byte, error) {
	axes := make([]gobRange, s.s.Rank())
	for i := range axes {
		axes[i].r = s.s.Axis(i)
	}
	return gobBytes(axes)
}

func gobBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func gobRoundTrip[T any](t *testing.T, in T) (out T) {
	t.Helper()
	b, err := gobBytes(in)
	if err == nil {
		err = gob.NewDecoder(bytes.NewReader(b)).Decode(&out)
	}
	if err != nil {
		t.Fatalf("%v: %v", in, err)
	}
	return out
}

func TestGobRangeRoundTrip(t *testing.T) {
	for _, r := range []rangeset.Range{{}, rangeset.Single(5), rangeset.Span(-3, 7),
		rangeset.Reg(0, 100, 7), rangeset.List(1, 2, 5, 9), rangeset.List(-10, 0, 3)} {
		if got := gobRoundTrip(t, gobRange{r}).r; !got.Equal(r) || got.IsRegular() != r.IsRegular() {
			t.Errorf("roundtrip %v -> %v", r, got)
		}
	}
}

func TestGobRangeRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for range 300 {
		lo, n := rng.Intn(40)-20, rng.Intn(15)
		r := rangeset.Reg(lo, lo+(n-1)*3, 3)
		if rng.Intn(2) == 0 {
			var idx []int
			for i, v := 0, lo; i < n; i++ {
				v += 1 + rng.Intn(4)
				idx = append(idx, v)
			}
			r = rangeset.List(idx...)
		}
		if got := gobRoundTrip(t, gobRange{r}).r; !got.Equal(r) || got.IsRegular() != r.IsRegular() {
			t.Fatalf("roundtrip %v -> %v", r, got)
		}
	}
}

func TestGobSliceRoundTrip(t *testing.T) {
	for _, s := range []rangeset.Slice{{}, rangeset.NewSlice(rangeset.Span(0, 9)),
		rangeset.NewSlice(rangeset.Reg(0, 20, 2), rangeset.List(1, 4, 5), rangeset.Single(7)),
		rangeset.NewSlice(rangeset.Range{}, rangeset.Span(0, 3))} { // an empty axis survives
		got := gobRoundTrip(t, gobSlice{s}).s
		if got.Rank() != s.Rank() || !got.Equal(s) && !(got.Empty() && s.Empty()) {
			t.Errorf("roundtrip %v -> %v", s, got)
		}
	}
}

// TestGobSliceInsideStruct: slices traveled inside metadata structs.
func TestGobSliceInsideStruct(t *testing.T) {
	in := gobArray{Name: "u", Global: gobSlice{rangeset.Box([]int{0, 0, 0}, []int{63, 63, 63})}, Bytes: 8}
	if out := gobRoundTrip(t, in); out.Name != "u" || out.Bytes != 8 || !out.Global.s.Equal(in.Global.s) {
		t.Fatalf("got %+v", out)
	}
}

// TestGobRangeRefusesWhatNoEncoderWrote: stored bytes that would make
// rangeset.Reg or List panic are an error.
func TestGobRangeRefusesWhatNoEncoderWrote(t *testing.T) {
	type wire struct {
		Regular    bool
		Lo, Hi, St int
		Idx        []int
	}
	for _, w := range []wire{{Regular: true, Lo: 0, Hi: 9, St: 0}, {Regular: true, Lo: 0, Hi: 9, St: -2},
		{Idx: []int{3, 3}}, {Idx: []int{1, 5, 4}}} {
		b, err := gobBytes(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := new(gobRange).GobDecode(b); err == nil {
			t.Errorf("%+v decoded", w)
		}
	}
}

// writeApp runs a two-task application that commits gens generations of
// a 64-element array under prefix with cfg.
func writeApp(t *testing.T, cfg drms.Config, prefix string, gens int) {
	t.Helper()
	cfg.Tasks, cfg.Keep, cfg.Stream = 2, gens, stream.Options{PieceBytes: 64}
	err := drms.Run(cfg, func(tk *drms.Task) error {
		d, err := dist.Block(rangeset.NewSlice(rangeset.Span(0, 63)), []int{tk.Tasks()})
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
		for ; iter < gens; iter++ {
			if _, _, err := tk.ReconfigCheckpoint(prefix); err != nil {
				return err
			}
			u.Set(u.Assigned().Coord(0, rangeset.ColMajor), float64(iter)*2.5)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// toGob rewrites prefix's committed metadata as the gob record of the
// given version an earlier build wrote for it.
func toGob(t *testing.T, fs *pfs.System, prefix string, version int) {
	t.Helper()
	m, err := ckpt.ReadMeta(fs, prefix, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := gobMeta{Version: version, Mode: m.Mode, Tasks: m.Tasks, Ctx: m.Ctx, SegBytes: m.SegBytes,
		SegCRC: m.SegCRC, SegWhere: m.SegWhere, ArrayCRC: m.ArrayCRC, PlanSigs: m.PlanSigs,
		ChainLen: m.ChainLen, Deps: m.Deps, PieceLocs: m.PieceLocs, Sections: m.Sections}
	for _, a := range m.Arrays {
		g.Arrays = append(g.Arrays, gobArray{a.Name, a.Kind, gobSlice{a.Global}, a.Bytes})
	}
	b, err := gobBytes(g)
	if err != nil {
		t.Fatal(err)
	}
	fs.Remove(prefix + ".meta")
	fs.Create(prefix + ".meta")
	if err := fs.WriteAt(0, prefix+".meta", b, 0); err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeRewritesOnlyMeta: an SPMD record (gob version 1), a DRMS
// anchor and a memory-only DRMS delta (gob version 2, no payload on disk)
// are refused as legacy, and Upgrade gives each back the version 3 record
// this tree committed, byte for byte, touching no other file.
func TestUpgradeRewritesOnlyMeta(t *testing.T) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	tier := ckpt.NewMemTier()
	// DemoteEvery 2: hot.g0 writes through, hot.g1 is diskless.
	writeApp(t, drms.Config{FS: fs, AnchorEvery: 4, Codec: ckpt.CodecRaw, Tier: tier, Replicas: 1, DemoteEvery: 2}, "hot", 2)
	writeApp(t, drms.Config{FS: fs, SPMDMode: true}, "sp", 1)
	if m, err := ckpt.ReadMeta(fs, "hot.g1", 0); err != nil || m.SegWhere != ckpt.TierMem || len(m.Deps) == 0 {
		t.Fatalf("hot.g1 is no memory-only delta: %+v, %v", m, err)
	}
	for p, version := range map[string]int{"sp.g0": 1, "hot.g0": 2, "hot.g1": 2} {
		want := fileBytes(t, fs, p+".meta")
		toGob(t, fs, p, version)
		before := fs.List("")
		if _, err := ckpt.ReadMeta(fs, p, 0); !errors.Is(err, ckpt.ErrLegacyFormat) {
			t.Fatalf("%s as gob version %d: %v, want ErrLegacyFormat", p, version, err)
		}
		if up, err := Upgrade(fs, p, 0); !up || err != nil {
			t.Fatalf("upgrade %s: upgraded %v, %v", p, up, err)
		}
		if got := fileBytes(t, fs, p+".meta"); !bytes.Equal(got, want) {
			t.Fatalf("%s upgraded to %d bytes, committed as %d other bytes", p, len(got), len(want))
		}
		if after := fs.List(""); !slices.Equal(before, after) {
			t.Fatalf("upgrading %s changed the file set: %v -> %v", p, before, after)
		}
	}
	if err := ckpt.VerifyTier(fs, tier, "hot.g1", 0); err != nil {
		t.Fatal(err)
	}
}

// TestStateStoreBrokenChainQuarantinesHead: damaging a legacy delta's
// base (which the head's own verification does not cover) makes
// UpgradeStore quarantine the head, not commit a half-materialized table:
// the fixture's g2 needs g1, so with g1 damaged both leave and the anchor
// g0's table is what g3 holds.
func TestStateStoreBrokenChainQuarantinesHead(t *testing.T) {
	fs := load(t, ckptData+"rcstate_deltas.pfs")
	b := fileBytes(t, fs, "rcstate.g1.seg")[9:10]
	if err := fs.WriteAt(0, "rcstate.g1.seg", []byte{b[0] ^ 0xff}, 9); err != nil {
		t.Fatal(err)
	}
	g, quarantined, err := UpgradeStore(fs, "rcstate")
	if g != 3 || err != nil || !slices.Equal(quarantined, []string{"rcstate.g2", "rcstate.g1"}) {
		t.Fatalf("UpgradeStore with a broken chain: gen %d quarantined %v, %v", g, quarantined, err)
	}
	if fs.Exists("rcstate.g2.meta") || len(fs.List("rcstate.g2.bad.")) == 0 {
		t.Fatal("the head whose base is damaged was not quarantined")
	}
	got, g, _, ok, err := (&ckpt.StateStore{Base: "rcstate"}).Load(fs)
	if !ok || g != 3 || err != nil || len(got) != 3 || string(got["a"])+string(got["b"])+string(got["c"]) != "v0v0v0" {
		t.Fatalf("Load: gen=%d ok=%v %q, %v", g, ok, got, err)
	}
}

// TestGobRecordSchema: a gob record of schema 1 decodes into the record
// it names, one of a later schema is refused.
func TestGobRecordSchema(t *testing.T) {
	type rec struct {
		Schema   int
		LeaseSeq int64
	}
	for schema, ok := range map[int]bool{1: true, 2: false} {
		b, err := gobBytes(rec{schema, 41})
		if err != nil {
			t.Fatal(err)
		}
		var got struct{ LeaseSeq int64 }
		if err := gobRecord(b, &got); (err == nil) != ok || ok && got.LeaseSeq != 41 {
			t.Errorf("schema %d: %+v, %v", schema, got, err)
		}
	}
}

// TestRecoverRCRefusesGobEraStore: a coordinator store an earlier build
// wrote is refused with ckpt.ErrLegacyFormat, quarantining nothing and
// touching no file, in each state a build saved it in — gob metadata over
// a delta chain of gob images, a gob image under framed metadata, and a
// framed image holding gob records (what -repair committed before it
// reframed records) — until UpgradeStore rewrites it; then the
// coordinator recovers from the rewritten head.
func TestRecoverRCRefusesGobEraStore(t *testing.T) {
	opt := coord.RCOptions{HBTimeout: 150 * time.Millisecond, StatePrefix: "rcstate"}
	refused := func(fs *pfs.System, stage string) {
		t.Helper()
		before := fs.List("")
		if rc, _, err := coord.RecoverRC(fs, opt, nil); !errors.Is(err, ckpt.ErrLegacyFormat) {
			if rc != nil {
				rc.Close()
			}
			t.Fatalf("RecoverRC of a %s store: %v, want ckpt.ErrLegacyFormat", stage, err)
		}
		if after := fs.List(""); !slices.Equal(before, after) {
			t.Fatalf("a refused recovery changed the %s store: %v -> %v", stage, before, after)
		}
	}
	refused(load(t, ckptData+"rcstate_deltas.pfs"), "gob-era")
	fs := load(t, coordData+"rcstate_parent.pfs")
	refused(fs, "gob-image")
	legacy := false
	table, err := imageTable(fs, "rcstate", "rcstate.g2", 0, &legacy)
	if err != nil || !legacy {
		t.Fatalf("the fixture's head: legacy %v, %v", legacy, err)
	}
	if g, err := (&ckpt.StateStore{Base: "rcstate"}).Commit(fs, table); g != 3 || err != nil {
		t.Fatalf("commit of the gob records: gen %d, %v", g, err)
	}
	refused(fs, "framed image, gob records")
	if !StoreIsLegacy(fs, "rcstate") {
		t.Fatal("a framed image holding gob records is not reported legacy")
	}
	if g, q, err := UpgradeStore(fs, "rcstate"); g != 4 || len(q) != 0 || err != nil {
		t.Fatalf("UpgradeStore: gen %d quarantined %v, %v", g, q, err)
	}
	if StoreIsLegacy(fs, "rcstate") {
		t.Fatal("the rewritten store is still reported legacy")
	}
	rc, report, err := coord.RecoverRC(fs, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	if report.Gen != 4 || len(report.Quarantined) != 0 {
		t.Fatalf("recovered from generation %d, quarantined %v; want the rewritten head, 4, and nothing", report.Gen, report.Quarantined)
	}
	if info, ok := rc.App("done"); !ok || info.Status != coord.StatusFinished {
		t.Fatalf("done recovered as %+v", info)
	}
}

// FuzzDecodeV3 feeds version 3's decoder arbitrary bytes: a Meta or an
// error, never a panic, and an accepted record is the one version 3's walk
// writes for what it decoded, byte for byte. Seeded with golden_v3's
// record (two arrays' location tables), a version 3 state store's and a
// delta's with a fingerprint table.
func FuzzDecodeV3(f *testing.F) {
	f.Add(fileBytes(f, load(f, ckptData+"golden_v3.pfs"), "golden.meta"))
	store := load(f, coordData+"rcstate_v3.pfs")
	_, head, _ := ckpt.Rotation{Base: "rcstate"}.Latest(store)
	f.Add(fileBytes(f, store, head+".meta"))
	delta := ckpt.Meta{Mode: ckpt.ModeDRMS, Tasks: 2, Arrays: []ckpt.ArrayMeta{{Name: "u", Kind: "float64", Bytes: 8}},
		SegBytes: []int64{40}, SegCRC: []uint64{1}, ArrayCRC: []uint64{2}, ChainLen: 1, Deps: []int{0},
		PieceLocs: [][]ckpt.PieceLoc{{{PieceSum: ckpt.PieceSum{Bytes: 8, CRC: 3}, FileBytes: 8, StoredCRC: 3}}},
		Sections:  [][]stream.SectionSum{{{Task: 1, Bytes: 8, CRC: 4}}}}
	f.Add(frame.Encode(func(c *frame.Codec) { walkV3(c, &delta) }))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeV3(b)
		if err != nil {
			return
		}
		if enc := frame.Encode(func(c *frame.Codec) { walkV3(c, &m) }); !bytes.Equal(enc, b) {
			t.Fatalf("accepted %d bytes that re-encode as %d other bytes", len(b), len(enc))
		}
	})
}
