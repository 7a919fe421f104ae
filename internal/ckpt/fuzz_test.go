package ckpt

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/stream"
)

// fileBytes returns the stored contents of the file name.
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

// metaBytes returns the stored metadata record of prefix.
func metaBytes(t testing.TB, fs *pfs.System, prefix string) []byte {
	t.Helper()
	return fileBytes(t, fs, metaFile(prefix))
}

// FuzzReadMeta stores arbitrary bytes as the metadata x.meta beside the
// payload files of the current golden, renamed under x, on a fresh file
// system, and reads and verifies the checkpoint. A result or an error are
// the only outcomes: no metadata record may panic a reader. A record
// ReadMeta accepts is the one encodeMeta writes for what it decoded, byte
// for byte: version 4 has one spelling per Meta. Seeded with the golden's
// own record (DRMS), its version 3 record (legacy), a StateStore
// generation's, an SPMD checkpoint's and a flate delta's.
func FuzzReadMeta(f *testing.F) {
	golden := pfs.NewSystem(pfs.DefaultConfig())
	if err := golden.LoadFile(currentGolden); err != nil {
		f.Fatal(err)
	}
	payload := map[string][]byte{}
	for _, name := range golden.List("golden.") {
		if name == metaFile("golden") {
			continue
		}
		sz, _ := golden.Size(name)
		b := make([]byte, sz)
		if err := golden.ReadAt(0, name, b, 0); err != nil {
			f.Fatal(err)
		}
		payload["x"+strings.TrimPrefix(name, "golden")] = b
	}
	f.Add(metaBytes(f, golden, "golden"))
	v3 := pfs.NewSystem(pfs.DefaultConfig())
	if err := v3.LoadFile("testdata/golden_v3.pfs"); err != nil {
		f.Fatal(err)
	}
	f.Add(metaBytes(f, v3, "golden"))

	seeds := testFS()
	st := &StateStore{Base: "rcstate"}
	gen, err := st.Commit(seeds, recs("a", "v0", "b", "v1"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(metaBytes(f, seeds, Rotation{Base: st.Base}.generation(gen)))
	mustRun(f, 2, func(c *msg.Comm) {
		sg, refs, u, _ := buildApp(c, []int{2, 1})
		u.Fill(coordVal)
		if _, err := WriteSPMD(seeds, "sp", c, sg, refs, stream.Options{}); err != nil {
			panic(err)
		}
	})
	f.Add(metaBytes(f, seeds, "sp"))
	writeChainGen(f, seeds, "job.g0", ChainOptions{Delta: true, Codec: CodecFlate}, 0, 2, []int{2, 1})
	writeChainGen(f, seeds, "job.g1", ChainOptions{Prev: "job.g0", Delta: true, Codec: CodecFlate}, 1, 2, []int{2, 1})
	f.Add(metaBytes(f, seeds, "job.g1"))

	f.Fuzz(func(t *testing.T, meta []byte) {
		fs := pfs.NewSystem(pfs.DefaultConfig())
		for name, b := range payload {
			if err := fs.WriteAt(0, name, b, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.WriteAt(0, metaFile("x"), meta, 0); err != nil {
			t.Fatal(err)
		}
		m, err := ReadMeta(fs, "x", 0)
		if err == nil && !bytes.Equal(encodeMeta(&m), meta) {
			t.Fatalf("accepted a %d-byte record that re-encodes as %d other bytes", len(meta), len(encodeMeta(&m)))
		}
		if err == nil {
			_ = Verify(fs, "x", 0)
		}
	})
}

// FuzzReadSegmentFile stores a segment file of an arbitrary length prefix
// and payload and reads it as a segment of total bytes. A payload and the
// file's CRC, or an error, are the only outcomes: no length prefix or
// total may panic or exhaust the reader. Seeded with a well-formed file
// and prefixes whose bounds check once overflowed.
func FuzzReadSegmentFile(f *testing.F) {
	f.Add(uint64(4), []byte("abcd\x00\x00\x00\x00"), int64(16))
	f.Add(uint64(math.MaxInt64-3), make([]byte, 56), int64(64))
	f.Add(uint64(math.MaxUint64), []byte{}, int64(8))
	f.Add(uint64(0), []byte{}, int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, plen uint64, body []byte, total int64) {
		fs := pfs.NewSystem(pfs.DefaultConfig())
		file := binary.LittleEndian.AppendUint64(nil, plen)
		file = append(file, body...)
		if err := fs.WriteAt(0, "x.seg", file, 0); err != nil {
			t.Fatal(err)
		}
		payload, sum, err := readSegmentFile(fs, "x", "x.seg", 0, total)
		if err != nil {
			return
		}
		if uint64(len(payload)) != plen || !bytes.Equal(payload, body[:plen]) {
			t.Fatalf("payload of %d bytes, prefix says %d", len(payload), plen)
		}
		if total > int64(len(file)) || sum != crcOf(file[:total]) {
			t.Fatalf("read a %d-byte file as %d bytes, crc %x", len(file), total, sum)
		}
	})
}

// FuzzDecodeLocSums feeds the location and fingerprint gather's decoder
// (locSumsFrames), for a count of arrays, an arbitrary frame: records or
// an error, never a panic. A frame it accepts is the one its encoder
// writes for what it decoded, byte for byte. Seeded with one and two
// arrays' frames, an empty one and a count no frame could hold.
func FuzzDecodeLocSums(f *testing.F) {
	locs := []PieceLoc{{PieceSum: PieceSum{Index: 3, Off: 900, CRC: 7, Bytes: 300},
		Gen: -1, Task: 2, FileOff: 10, FileBytes: 120, Codec: 1, StoredCRC: 8, Where: TierMem}}
	sums := []stream.SectionSum{{Piece: 3, Task: 2, Bytes: 8, CRC: 9}}
	one, _ := locSumsFrames(false, nil, [][]PieceLoc{locs}, [][]stream.SectionSum{sums})
	f.Add(one, uint8(1))
	multi, _ := locSumsFrames(false, nil, [][]PieceLoc{locs, nil}, [][]stream.SectionSum{nil, sums})
	f.Add(multi, uint8(2))
	f.Add([]byte{0, 0}, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, part []byte, arrays uint8) {
		n := int(arrays % 4)
		locs, sums := make([][]PieceLoc, n), make([][]stream.SectionSum, n)
		if _, err := locSumsFrames(true, part, locs, sums); err != nil {
			return
		}
		if b, _ := locSumsFrames(false, nil, locs, sums); !bytes.Equal(b, part) {
			t.Fatalf("%d arrays: accepted %x, which decodes to %+v, %+v and encodes as %x", n, part, locs, sums, b)
		}
	})
}

// FuzzDecodeDeltaDecision feeds the delta decision's decoder — what
// every task, rank 0 included, runs on rank 0's broadcast — an arbitrary
// frame for a count of arrays: piece filters or an error, never a panic.
// Every filter it accepts is ascending and names no negative piece, and
// what it decodes comes back through encode and decode unchanged.
func FuzzDecodeDeltaDecision(f *testing.F) {
	frame, _ := pieceFilters(false, nil, [][]int{nil, {}, {0, 3, 7}})
	f.Add(frame, uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0, 2, 6, 2}, uint8(1))                         // a filter not ascending
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0}, uint8(1)) // a count no frame could hold
	f.Add([]byte{2}, uint8(1))                                  // a flag no field owns
	f.Fuzz(func(t *testing.T, b []byte, arrays uint8) {
		filters := make([][]int, arrays%8)
		if _, err := pieceFilters(true, b, filters); err != nil {
			return
		}
		for i, fl := range filters {
			for j, pi := range fl {
				if pi < 0 || j > 0 && pi <= fl[j-1] {
					t.Fatalf("accepted array %d's filter %v", i, fl)
				}
			}
		}
		again := make([][]int, len(filters))
		enc, _ := pieceFilters(false, nil, filters)
		if _, err := pieceFilters(true, enc, again); err != nil || !reflect.DeepEqual(again, filters) {
			t.Fatalf("decode(encode(%v)) = %v, %v", filters, again, err)
		}
	})
}

// FuzzDecodeReadCheck feeds a restore's integrity round its two frames:
// a task's piece CRCs and tier byte counts as rank 0 decodes them
// (readSums), and rank 0's verdict as every task decodes it
// (verdictFrame), for a count of arrays. Records or an error, never a
// panic; accepted piece sums are the encoding of what they decode to;
// an accepted verdict names an array of the count or none, and a piece
// only of an array, and comes back through encode and decode unchanged.
func FuzzDecodeReadCheck(f *testing.F) {
	sums, _ := readSums(false, nil, [][]PieceSum{{{Index: 2, Off: 600, CRC: 5, Bytes: 300}}, nil}, &[2]int64{300, 0})
	verdict, _ := verdictFrame(false, nil, &readVerdict{Array: 1, Piece: 2, Mem: 1 << 40, PFS: 7}, 2)
	f.Add(sums, verdict, uint8(2))
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add([]byte{1, 4, 0x80, 0, 0}, []byte{1, 2, 0, 0}, uint8(1)) // a padded offset; a piece of no array
	f.Fuzz(func(t *testing.T, sums, verdict []byte, arrays uint8) {
		n := int(arrays % 4)
		pieces, tier := make([][]PieceSum, n), [2]int64{}
		if _, err := readSums(true, sums, pieces, &tier); err == nil {
			if enc, _ := readSums(false, nil, pieces, &tier); !bytes.Equal(enc, sums) {
				t.Fatalf("accepted %x, which decodes to %v, %v and encodes as %x", sums, pieces, tier, enc)
			}
		}
		var v readVerdict
		if _, err := verdictFrame(true, verdict, &v, n); err != nil {
			return
		}
		if v.Array < -1 || v.Array >= n || v.Piece < -1 || v.Array < 0 && v.Piece >= 0 {
			t.Fatalf("accepted verdict %+v on %d arrays", v, n)
		}
		var again readVerdict
		enc, _ := verdictFrame(false, nil, &v, n)
		if _, err := verdictFrame(true, enc, &again, n); err != nil || again != v {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", v, again, err)
		}
	})
}

// FuzzLoadTierFile stores arbitrary bytes as a tier snapshot file and
// loads it: a tier or an error, never a panic, and a loaded tier saves
// back to the bytes it was loaded from. A tier holding the fuzzed bytes
// as one piece on two holders round-trips through SaveFile.
func FuzzLoadTierFile(f *testing.F) {
	seed := NewMemTier()
	seed.Publish([]int{0, 1}, "job.g1", "u", 4, []byte("piece"), crcOf([]byte("piece")))
	path := filepath.Join(f.TempDir(), "seed.tier")
	if err := seed.SaveFile(path); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b, 4)
	f.Add(b[:len(b)/2], 0)
	f.Add([]byte{}, -1)
	f.Fuzz(func(t *testing.T, snap []byte, index int) {
		dir := t.TempDir()
		path := filepath.Join(dir, "x.tier")
		if err := os.WriteFile(path, snap, 0o600); err != nil {
			t.Fatal(err)
		}
		if loaded, err := LoadTierFile(path); err == nil {
			if err := loaded.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			if saved, _ := os.ReadFile(path); !bytes.Equal(saved, snap) {
				t.Fatalf("%x loaded, saved back as %x", snap, saved)
			}
		}

		tier := NewMemTier()
		tier.Publish([]int{0, 1}, "job.g1", "u", index, snap, crcOf(snap))
		if err := tier.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := LoadTierFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if e, w := got.Entries("job.g1"), tier.Entries("job.g1"); !reflect.DeepEqual(e, w) {
			t.Fatalf("entries %+v, saved %+v", e, w)
		}
		if data, _, ok := got.Lookup(-1, "job.g1", "u", index, crcOf(snap)); !ok || !bytes.Equal(data, snap) {
			t.Fatalf("piece %d lost in the round trip", index)
		}
	})
}

// FuzzStateImage feeds the state image decoder arbitrary bytes: a table
// or an error, never a panic, and an accepted image is the encoding of
// the table it decoded to. A table built from the fuzzed bytes
// round-trips.
func FuzzStateImage(f *testing.F) {
	f.Add(encodeStateImage(recs("rc", "x", "app/a", "y")), "app/b", []byte("z"))
	f.Add(encodeStateImage(nil), "", []byte{})
	f.Add([]byte("DRMSstate\x01\x02\x01b\x00\x01a\x00"), "a", []byte{0xff})
	f.Fuzz(func(t *testing.T, b []byte, key string, val []byte) {
		if table, err := decodeStateImage(b, "rcstate.g0"); err == nil && !bytes.Equal(encodeStateImage(table), b) {
			t.Fatalf("%x decoded to %v, which encodes to %x", b, table, encodeStateImage(table))
		}
		table := map[string][]byte{key: val, key + "/2": b}
		got, err := decodeStateImage(encodeStateImage(table), "rcstate.g0")
		if err != nil || len(got) != 2 || !bytes.Equal(got[key], val) || !bytes.Equal(got[key+"/2"], b) {
			t.Fatalf("table %v round-tripped to %v, %v", table, got, err)
		}
	})
}
