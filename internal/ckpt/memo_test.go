package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"testing"

	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/seg"
	"drms/internal/stream"
)

// freshDecode decodes prefix's stored metadata bypassing the memo.
func freshDecode(t testing.TB, fs *pfs.System, prefix string) Meta {
	t.Helper()
	var m Meta
	if err := decodeMeta(metaBytes(t, fs, prefix), prefix, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// seeded returns the memo's entry for prefix's stored metadata bytes.
func seeded(t testing.TB, fs *pfs.System, prefix string) Meta {
	t.Helper()
	m, ok := metaMemo.Get(metaKeyOf(metaBytes(t, fs, prefix)))
	if !ok {
		t.Fatalf("the commit of %s did not seed the metadata memo", prefix)
	}
	return m
}

// rewriteMeta replaces prefix's stored metadata with b, past writeMeta
// and so past the memo: what damage at rest, or another process, does.
func rewriteMeta(t testing.TB, fs *pfs.System, prefix string, b []byte) {
	t.Helper()
	fs.Create(metaFile(prefix))
	if err := fs.WriteAt(0, metaFile(prefix), b, 0); err != nil {
		t.Fatal(err)
	}
}

func encodeMeta(t testing.TB, m Meta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCommitSeedsCanonicalMeta: for every kind of record a commit writes,
// the memo's seeded entry is exactly what a fresh decode of the committed
// bytes yields — the writer's empty tables included, which gob decodes
// as nil.
func TestCommitSeedsCanonicalMeta(t *testing.T) {
	fs := testFS()
	tier := NewMemTier()
	writeChainGen(t, fs, "raw.g0", ChainOptions{Codec: CodecRaw, NoDeltaBase: true}, 0, 4, []int{2, 2})
	writeChainGen(t, fs, "job.g0", ChainOptions{Codec: CodecFlate}, 0, 4, []int{2, 2})
	writeChainGen(t, fs, "job.g1", ChainOptions{Codec: CodecFlate, Prev: "job.g0", Delta: true}, 1, 4, []int{2, 2})
	writeChainGen(t, fs, "hot.g0", ChainOptions{Codec: CodecRaw, Tier: tier, Replicas: 1}, 0, 4, []int{2, 2})
	writeChainGen(t, fs, "hot.g1", ChainOptions{Codec: CodecRaw, Tier: tier, Replicas: 1,
		Prev: "hot.g0", Delta: true, MemOnly: true}, 1, 4, []int{2, 2})
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, u, _ := buildApp(c, []int{2, 1})
		u.Fill(coordVal)
		if _, err := WriteSPMD(fs, "sp", c, sg, refs, stream.Options{}); err != nil {
			panic(err)
		}
		// No arrays: the writer's tables are empty, not nil.
		if _, err := WriteDRMSChained(fs, "bare.g0", c, seg.New(), nil, stream.Options{}, ChainOptions{}); err != nil {
			panic(err)
		}
	})
	st := &StateStore{Base: "rcstate"}
	gen, err := st.Commit(fs, recs("a", "v0"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"raw.g0", "job.g0", "job.g1", "hot.g1", "sp", "bare.g0", Rotation{Base: st.Base}.generation(gen)} {
		if got, want := seeded(t, fs, p), freshDecode(t, fs, p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: seeded %+v\nfresh decode %+v", p, got, want)
		}
	}
	if m := freshDecode(t, fs, "job.g1"); len(m.Deps) == 0 || len(m.Sections) == 0 {
		t.Fatalf("job.g1 is not a delta with fingerprints: deps %v, %d section tables", m.Deps, len(m.Sections))
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
	want := freshDecode(t, fs, "job.g1")
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
	for i := 0; i < 2; i++ { // the second read is a memo hit of the first
		m, err := ReadMeta(fs, "job.g1", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("read %d = %+v, want %+v", i, m, want)
		}
		scribble(&m)
	}

	// Every table field, including any added later: a clone aliases none.
	c := want.clone()
	for i, v := 0, reflect.ValueOf(want); i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() > 0 &&
			f.Pointer() == reflect.ValueOf(c).Field(i).Pointer() {
			t.Errorf("clone shares Meta.%s", v.Type().Field(i).Name)
		}
	}
}

// TestRewrittenMetaDecodedAfresh: a meta file whose bytes change under the
// same name is a new memo key — decoded, and reported, as it stands on
// storage: a changed checksum fails verification, a torn record is a
// *CorruptError, and verified resolution quarantines both.
func TestRewrittenMetaDecodedAfresh(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rewrite func(t *testing.T, b []byte, m Meta) []byte
	}{
		{"changed", func(t *testing.T, _ []byte, m Meta) []byte {
			c := m.clone()
			c.SegCRC[0] ^= 1
			return encodeMeta(t, c)
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

// TestLaunchRestoreAfterCommitDecodesNothing: a restart in the process
// that committed — resolution, the launch's metadata check, verified
// resolution and a reconfigured restore on three ranks — finds every
// record it reads in the memo: not one decode.
func TestLaunchRestoreAfterCommitDecodesNothing(t *testing.T) {
	fs := testFS()
	for step, g := range []string{"job.g0", "job.g1"} {
		co := ChainOptions{Codec: CodecRaw}
		if step > 0 {
			co.Prev, co.Delta = "job.g0", true
		}
		writeChainGen(t, fs, g, co, step, 4, []int{2, 2})
	}
	hits0, misses0 := metaMemo.Stats()
	p, ok := Resolve(fs, "job")
	if !ok {
		t.Fatal("no committed generation")
	}
	if _, err := ReadMeta(fs, p, 0); err != nil {
		t.Fatal(err)
	}
	if chosen, _, ok, err := ResolveVerified(fs, "job"); !ok || chosen != p {
		t.Fatalf("ResolveVerified = %s, %v, %v", chosen, ok, err)
	}
	checkChainRestore(t, fs, p, 1, 3, []int{1, 3}, 300)
	hits, misses := metaMemo.Stats()
	hits, misses = hits-hits0, misses-misses0
	if misses != 0 || hits < 1+1+3 {
		t.Fatalf("metadata memo: %d hits, %d misses (decodes); want 0 misses", hits, misses)
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
