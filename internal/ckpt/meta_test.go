package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"testing"

	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/stream"
)

// denseMeta is a DRMS record shaped like the dense-restart workload's:
// BT's four fields (u, rhs and forcing of 5 components, lhs of 15) on a
// 48³ grid as 4-D shapes, written by 4 tasks in 1 MB raw pieces, without
// fingerprints (an anchor interval of one).
func denseMeta() Meta {
	const n, tasks, piece = 48, 4, 1 << 20
	m := Meta{Version: metaVersion, Mode: ModeDRMS, Tasks: tasks,
		Ctx:      seg.Context{SOP: "ck", Step: 12, Tasks: tasks},
		SegBytes: []int64{3 << 20}, SegCRC: []uint64{0x5eed}}
	for _, f := range []struct {
		name  string
		comps int
	}{{"u", 5}, {"rhs", 5}, {"forcing", 5}, {"lhs", 15}} {
		g := rangeset.Box([]int{0, 0, 0, 0}, []int{f.comps - 1, n - 1, n - 1, n - 1})
		size := int64(g.Size()) * 8
		var locs []PieceLoc
		for i, off := 0, int64(0); off < size; i, off = i+1, off+piece {
			b := min(piece, size-off)
			sum := uint64(i+1) * 0x9e3779b97f4a7c15
			locs = append(locs, PieceLoc{PieceSum: PieceSum{Index: i, Off: off, CRC: sum, Bytes: b},
				Gen: 2, Task: i % tasks, FileOff: int64(i/tasks) * piece, FileBytes: b, StoredCRC: sum})
		}
		m.Arrays = append(m.Arrays, ArrayMeta{Name: f.name, Kind: "float64", Global: g, Bytes: size})
		m.ArrayCRC = append(m.ArrayCRC, combineLocs(locs))
		m.PlanSigs = append(m.PlanSigs, stream.PlanSig(g, 8, tasks, stream.Options{PieceBytes: piece}))
		m.PieceLocs = append(m.PieceLocs, locs)
	}
	return m
}

// BenchmarkReadMeta reads and decodes denseMeta's stored record, as every
// reader of a restart does.
func BenchmarkReadMeta(b *testing.B) {
	fs := testFS()
	if err := writeMeta(fs, "ck.g2", 0, denseMeta()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ReadMeta(fs, "ck.g2", 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(metaBytes(b, fs, "ck.g2"))), "record-bytes")
}

// gobHistoryChild is the argument that makes TestMetaBytesIndependentOfGobHistory
// the child process.
const gobHistoryChild = "gob-history-child"

// committedRecords commits denseMeta and the version 3 golden's record
// under fresh prefixes and returns their stored bytes.
func committedRecords(t *testing.T) [][]byte {
	golden := pfs.NewSystem(pfs.DefaultConfig())
	if err := golden.LoadFile(currentGolden); err != nil {
		t.Fatal(err)
	}
	g, err := ReadMeta(golden, "golden", 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := testFS()
	var out [][]byte
	for i, m := range []Meta{denseMeta(), g} {
		p := fmt.Sprintf("ck%d", i)
		if err := writeMeta(fs, p, 0, m); err != nil {
			t.Fatal(err)
		}
		out = append(out, metaBytes(t, fs, p))
	}
	return out
}

// TestMetaBytesIndependentOfGobHistory: a record's bytes are a function
// of its Meta alone. A child process that gob-encodes an unrelated struct
// before anything else — which renumbers every gob type it meets after —
// commits the same records as this process, byte for byte.
func TestMetaBytesIndependentOfGobHistory(t *testing.T) {
	if flag.Arg(0) == gobHistoryChild {
		if err := gob.NewEncoder(io.Discard).Encode(struct {
			Unrelated []string
			N         map[string]int
		}{[]string{"x"}, map[string]int{"y": 1}}); err != nil {
			t.Fatal(err)
		}
		for _, b := range committedRecords(t) {
			fmt.Printf("record %s\n", hex.EncodeToString(b))
		}
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestMetaBytesIndependentOfGobHistory$", "-test.count=1",
		"--", gobHistoryChild).CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var child [][]byte
	for _, line := range strings.Split(string(out), "\n") {
		if h, ok := strings.CutPrefix(line, "record "); ok {
			b, err := hex.DecodeString(h)
			if err != nil {
				t.Fatal(err)
			}
			child = append(child, b)
		}
	}
	mine := committedRecords(t)
	if len(child) != len(mine) {
		t.Fatalf("child printed %d records, want %d:\n%s", len(child), len(mine), out)
	}
	for i := range mine {
		if !bytes.Equal(child[i], mine[i]) {
			t.Errorf("record %d: %d bytes in the child, %d here, not identical", i, len(child[i]), len(mine[i]))
		}
	}
}

// TestMetaRoundTripsEveryRecordKind: DRMS anchors and deltas, memory-only
// generations, SPMD and StateStore records decode to exactly the Meta
// their writer committed, empty tables as nil, and re-encode to the
// bytes on storage.
func TestMetaRoundTripsEveryRecordKind(t *testing.T) {
	fs := testFS()
	tier := NewMemTier()
	committed := map[string]*Meta{}
	gen := func(prefix string, co ChainOptions, step int) {
		mustRun(t, 4, func(c *msg.Comm) {
			sg, refs, u, ids := buildApp(c, []int{2, 2})
			iter := step
			sg.Register("iter", &iter)
			uf, idf := chainFill(step)
			u.Fill(uf)
			ids.Fill(idf)
			st, err := WriteDRMSChained(fs, prefix, c, sg, refs, stream.Options{PieceBytes: 300}, co)
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				committed[prefix] = st.Meta
			}
		})
	}
	gen("raw.g0", ChainOptions{Codec: CodecRaw, NoDeltaBase: true}, 0)
	gen("job.g0", ChainOptions{Codec: CodecFlate}, 0)
	gen("job.g1", ChainOptions{Codec: CodecFlate, Prev: "job.g0", Delta: true}, 1)
	gen("hot.g0", ChainOptions{Codec: CodecRaw, Tier: tier, Replicas: 1}, 0)
	gen("hot.g1", ChainOptions{Codec: CodecRaw, Tier: tier, Replicas: 1, Prev: "hot.g0", Delta: true, MemOnly: true}, 1)
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, u, _ := buildApp(c, []int{2, 1})
		u.Fill(coordVal)
		if _, err := WriteSPMD(fs, "sp", c, sg, refs, stream.Options{}); err != nil {
			panic(err)
		}
	})
	st := &StateStore{Base: "rcstate"}
	g, err := st.Commit(fs, recs("a", "v0"))
	if err != nil {
		t.Fatal(err)
	}
	if m := committed["job.g1"]; len(m.Deps) == 0 || len(m.Sections) == 0 {
		t.Fatalf("job.g1 is not a delta with fingerprints: deps %v, %d section tables", m.Deps, len(m.Sections))
	}
	for _, p := range []string{"raw.g0", "job.g0", "job.g1", "hot.g0", "hot.g1", "sp", Rotation{Base: st.Base}.generation(g)} {
		m, err := ReadMeta(fs, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := committed[p]; want != nil && !reflect.DeepEqual(m, *want) {
			t.Errorf("%s: read %+v\ncommitted %+v", p, m, *want)
		}
		if b := metaBytes(t, fs, p); !bytes.Equal(encodeMeta(&m), b) {
			t.Errorf("%s: re-encodes to %d bytes, stored %d", p, len(encodeMeta(&m)), len(b))
		}
		for i, v := 0, reflect.ValueOf(m); i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() == 0 && !f.IsNil() {
				t.Errorf("%s: empty Meta.%s decodes as non-nil", p, v.Type().Field(i).Name)
			}
		}
	}
}

// TestReadMetaRefusesNonCanonical: a record that decodes to a Meta whose
// encoding is other bytes is refused, so every record has one spelling —
// a padded varint, a range Reg would normalize, an index list List would
// store as a regular range, trailing bytes.
func TestReadMetaRefusesNonCanonical(t *testing.T) {
	m := Meta{Version: metaVersion, Mode: ModeSPMD, Tasks: 1, SegBytes: []int64{8}, SegCRC: []uint64{0},
		Arrays: []ArrayMeta{{Name: "u", Kind: "float64", Global: rangeset.NewSlice(rangeset.Span(0, 9)), Bytes: 80}}}
	good := encodeMeta(&m)
	// The axis: no indices, then lo 0, hi 9, step 1 as zigzag varints.
	axis := []byte{0, 0, 18, 2}
	at := bytes.Index(good, axis)
	if at < 0 || bytes.Index(good[at+1:], axis) >= 0 {
		t.Fatal("the test cannot find the one axis in the record")
	}
	splice := func(with ...byte) []byte {
		return append(append(append([]byte(nil), good[:at]...), with...), good[at+len(axis):]...)
	}
	for name, b := range map[string][]byte{
		"padded varint":      splice(0, 0x80, 0x00, 18, 2),
		"unaligned hi":       splice(0, 0, 18, 4), // 0:9:2 is Reg's 0:8:2
		"empty as 5:3":       splice(0, 10, 6, 2),
		"regular as list":    splice(3, 0, 2, 4),
		"unordered list":     splice(3, 0, 4, 2),
		"zero step":          splice(0, 0, 18, 0),
		"trailing byte":      append(append([]byte(nil), good...), 0),
		"unknown version":    append([]byte(metaMagic+"\x05"), good[len(metaMagic)+1:]...),
		"count past the end": append(append([]byte(nil), good[:len(good)-1]...), 0xff),
	} {
		fs := testFS()
		rewriteMeta(t, fs, "x", b)
		var ce *CorruptError
		if _, err := ReadMeta(fs, "x", 0); !errors.As(err, &ce) {
			t.Errorf("%s: ReadMeta = %v, want *CorruptError", name, err)
		}
	}
	fs := testFS()
	rewriteMeta(t, fs, "x", good)
	if got, err := ReadMeta(fs, "x", 0); err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("the unspliced record: %+v, %v", got, err)
	}
}

// rewriteMeta replaces prefix's stored metadata with b, past writeMeta:
// what damage at rest, or another process, does.
func rewriteMeta(t testing.TB, fs *pfs.System, prefix string, b []byte) {
	t.Helper()
	fs.Create(metaFile(prefix))
	if err := fs.WriteAt(0, metaFile(prefix), b, 0); err != nil {
		t.Fatal(err)
	}
}

// TestReadMetaReturnsPrivateCopies: a caller that edits the tables of the
// Meta it read — or a writer that edits the Meta it committed — changes
// nothing any later reader sees.
func TestReadMetaReturnsPrivateCopies(t *testing.T) {
	fs := testFS()
	writeChainGen(t, fs, "job.g0", ChainOptions{Codec: CodecRaw}, 0, 4, []int{2, 2})
	var committed *Meta
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 2})
		iter := 1
		sg.Register("iter", &iter)
		uf, idf := chainFill(1)
		u.Fill(uf)
		ids.Fill(idf)
		st, err := WriteDRMSChained(fs, "job.g1", c, sg, refs, stream.Options{PieceBytes: 300},
			ChainOptions{Codec: CodecRaw, Prev: "job.g0", Delta: true})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			committed = st.Meta
		}
	})
	want, err := ReadMeta(fs, "job.g1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Deps) == 0 || len(want.Sections) == 0 || len(want.PieceLocs) == 0 {
		t.Fatalf("job.g1 lacks a table to edit: %+v", want)
	}
	scribble := func(m *Meta) {
		m.Arrays[0].Name = "scribbled"
		m.PieceLocs[0][0].Bytes = -1
		m.Sections[0][0].CRC ^= 1
		m.Deps[0] = 99
		m.SegBytes[0]++
		m.SegCRC[0] ^= 1
		m.ArrayCRC[0] ^= 1
		m.PlanSigs[0] = "scribbled"
	}
	scribble(committed)
	for i := 0; i < 2; i++ {
		m, err := ReadMeta(fs, "job.g1", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("read %d = %+v, want %+v", i, m, want)
		}
		scribble(&m)
	}

}

// TestRewrittenMetaDecodedAfresh: a meta file whose bytes change under the
// same name is decoded, and reported, as it stands on storage: a changed checksum fails verification, a torn record is a
// *CorruptError, and verified resolution quarantines both.
func TestRewrittenMetaDecodedAfresh(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rewrite func(t *testing.T, b []byte, m Meta) []byte
	}{
		{"changed", func(_ *testing.T, _ []byte, m Meta) []byte {
			m.SegCRC = []uint64{m.SegCRC[0] ^ 1}
			return encodeMeta(&m)
		}},
		{"torn", func(_ *testing.T, b []byte, _ Meta) []byte { return b[:len(b)/2] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := testFS()
			for step, g := range []string{"job.g0", "job.g1"} {
				writeChainGen(t, fs, g, ChainOptions{Codec: CodecRaw, NoDeltaBase: true}, step, 4, []int{2, 2})
			}
			m, err := ReadMeta(fs, "job.g1", 0)
			if err != nil {
				t.Fatal(err)
			}
			rewriteMeta(t, fs, "job.g1", tc.rewrite(t, metaBytes(t, fs, "job.g1"), m))
			var ce *CorruptError
			if tc.name == "changed" {
				if got, err := ReadMeta(fs, "job.g1", 0); err != nil || got.SegCRC[0] != m.SegCRC[0]^1 {
					t.Fatalf("ReadMeta of the rewritten record = SegCRC %x, %v; want %x", got.SegCRC, err, m.SegCRC[0]^1)
				}
				if err := Verify(fs, "job.g1", 0); !errors.As(err, &ce) {
					t.Fatalf("Verify = %v, want *CorruptError", err)
				}
			} else if _, err := ReadMeta(fs, "job.g1", 0); !errors.As(err, &ce) || ce.File != metaFile("job.g1") {
				t.Fatalf("ReadMeta of a torn record = %v, want *CorruptError naming its meta file", err)
			}
			chosen, q, ok, err := ResolveVerified(fs, "job")
			if !ok || chosen != "job.g0" || len(q) != 1 || q[0] != "job.g1" || !errors.As(err, &ce) {
				t.Fatalf("ResolveVerified = %s, quarantined %v, ok %v, %v", chosen, q, ok, err)
			}
		})
	}
}

// TestSegmentLengthPrefixOverflow: a segment length prefix near MaxInt64
// overflowed the bounds check (prefix + header > total) and panicked the
// allocation; it is a *CorruptError naming the file, and the control-plane
// store quarantines such a generation and loads the one before.
func TestSegmentLengthPrefixOverflow(t *testing.T) {
	fs := testFS()
	file := make([]byte, 64)
	binary.LittleEndian.PutUint64(file, math.MaxInt64-3)
	if err := fs.WriteAt(0, "x.seg", file, 0); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, _, err := readSegmentFile(fs, "x", "x.seg", 0, 64); !errors.As(err, &ce) || ce.File != "x.seg" {
		t.Fatalf("readSegmentFile = %v, want *CorruptError naming x.seg", err)
	}

	st := &StateStore{Base: "rcstate"}
	for _, v := range []string{"v0", "v1"} {
		if _, err := st.Commit(fs, recs("a", v)); err != nil {
			t.Fatal(err)
		}
	}
	// Damage g1's prefix and recommit its meta over the damage, so the
	// checksums agree and only the prefix is wrong.
	if err := fs.WriteAt(0, "rcstate.g1.seg", file[:segHeader], 0); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMeta(fs, "rcstate.g1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.SegCRC[0], err = readCRC(fs, "rcstate.g1.seg", 0, 0, 0, m.SegBytes[0]); err != nil {
		t.Fatal(err)
	}
	if err := writeMeta(fs, "rcstate.g1", 0, m); err != nil {
		t.Fatal(err)
	}
	got, g, q, ok, err := (&StateStore{Base: "rcstate"}).Load(fs)
	if !ok || g != 0 || len(q) == 0 || !errors.As(err, &ce) {
		t.Fatalf("Load = gen %d, quarantined %v, ok %v, %v", g, q, ok, err)
	}
	sameRecords(t, got, recs("a", "v0"))
}

// TestUpgradeNeededNotQuarantined: verified resolution over a rotation
// nobody upgraded says so, and touches no file.
func TestUpgradeNeededNotQuarantined(t *testing.T) {
	fs := testFS()
	loadV1Rotation(t, fs)
	before := fs.List("")
	chosen, quarantined, ok, err := ResolveVerified(fs, "job")
	if ok || !errors.Is(err, ErrLegacyFormat) || len(quarantined) != 0 {
		t.Fatalf("resolve = %q ok %v quarantined %v err %v", chosen, ok, quarantined, err)
	}
	if after := fs.List(""); !slices.Equal(before, after) {
		t.Fatalf("files changed: %v -> %v", before, after)
	}
}

// TestReadMetaRejectsMalformedShape: metadata that decodes but whose
// tables are shorter than the record promises is a *CorruptError at
// ReadMeta, so verified resolution — the supervisor's restart path —
// fails cleanly where the verifier used to index past them and panic.
func TestReadMetaRejectsMalformedShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    Meta
	}{
		{"drms-no-segment", Meta{Version: metaVersion, Mode: ModeDRMS, Tasks: 2}},
		{"spmd-short-segments", Meta{Version: metaVersion, Mode: ModeSPMD, Tasks: 3,
			SegBytes: []int64{8}, SegCRC: []uint64{0}}},
		{"drms-unlocated-array", Meta{Version: metaVersion, Mode: ModeDRMS, Tasks: 1,
			SegBytes: []int64{8}, SegCRC: []uint64{0}, Arrays: []ArrayMeta{{Name: "u", Bytes: 8}}}},
		{"extra-plan-sigs", Meta{Version: metaVersion, Mode: ModeDRMS, Tasks: 1,
			SegBytes: []int64{8}, SegCRC: []uint64{0}, PlanSigs: []string{"x"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := pfs.NewSystem(pfs.DefaultConfig())
			if err := writeMeta(fs, "x", 0, tc.m); err != nil {
				t.Fatal(err)
			}
			var ce *CorruptError
			if _, _, ok, err := ResolveVerified(fs, "x"); ok || !errors.As(err, &ce) {
				t.Fatalf("ResolveVerified ok %v err %v", ok, err)
			}
			if _, err := ReadMeta(fs, "x", 0); !errors.As(err, &ce) {
				t.Fatalf("ReadMeta = %v, want *CorruptError", err)
			}
		})
	}
}

// TestV3MetadataIsLegacy: a version 3 record — golden_v3.pfs's, as the
// one generation of a rotation — is intact but of an earlier build: a
// restore, Verify and ResolveVerifiedTier refuse it with ErrLegacyFormat,
// touching no file and quarantining nothing.
func TestV3MetadataIsLegacy(t *testing.T) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	if err := fs.LoadFile("testdata/golden_v3.pfs"); err != nil {
		t.Fatal(err)
	}
	for _, name := range fs.List("golden.") {
		if err := fs.Rename(name, "old.g0"+strings.TrimPrefix(name, "golden")); err != nil {
			t.Fatal(err)
		}
	}
	before := fs.List("")
	if _, err := ReadMeta(fs, "old.g0", 0); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("ReadMeta: %v, want ErrLegacyFormat", err)
	}
	if err := Verify(fs, "old", 0); !errors.Is(err, ErrLegacyFormat) {
		t.Errorf("Verify: %v, want ErrLegacyFormat", err)
	}
	if _, q, ok, err := ResolveVerifiedTier(fs, nil, "old"); ok || len(q) != 0 || !errors.Is(err, ErrLegacyFormat) {
		t.Errorf("resolve: ok %v, quarantined %v, %v; want ErrLegacyFormat", ok, q, err)
	}
	mustRun(t, 3, func(c *msg.Comm) {
		sg, refs, _, _ := buildApp(c, []int{3, 1})
		var iter int
		sg.Register("iter", &iter)
		if _, _, err := ReadDRMSOpts(fs, "old.g0", c, sg, refs, stream.Options{}, RestoreOptions{}); !errors.Is(err, ErrLegacyFormat) {
			panic(fmt.Sprintf("restore: %v, want ErrLegacyFormat", err))
		}
	})
	if after := fs.List(""); !slices.Equal(before, after) {
		t.Fatalf("files changed: %v -> %v", before, after)
	}
}
