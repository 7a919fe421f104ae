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
// payload files of golden_v3.pfs, renamed under x, on a fresh file system,
// and reads and verifies the checkpoint. A result or an error are the only
// outcomes: no metadata record may panic a reader. A record ReadMeta
// accepts is the one encodeMeta writes for what it decoded, byte for
// byte: version 3 has one spelling per Meta. Seeded with the golden's
// own record (DRMS), a StateStore generation's and an SPMD checkpoint's.
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

// FuzzDecodeLocSums feeds the piece-location decoders an arbitrary
// frame: records or an error, never a panic. As one array's piece table
// (decodeLocSums), a frame it accepts is one its encoder writes, byte for
// byte, and what it decodes comes back through encode and decode
// unchanged. As one task's contribution to a checkpoint's location or
// fingerprint gather for a count of arrays (locSumsFrames), what it
// decodes comes back through encode and decode unchanged.
func FuzzDecodeLocSums(f *testing.F) {
	locs := []PieceLoc{{PieceSum: PieceSum{Index: 3, Off: 900, CRC: 7, Bytes: 300},
		Gen: -1, Task: 2, FileOff: 10, FileBytes: 120, Codec: 1, StoredCRC: 8, Where: TierMem}}
	sums := []stream.SectionSum{{Piece: 3, Task: 2, Bytes: 8, CRC: 9}}
	f.Add(encodeLocSums(locs, sums), uint8(1))
	f.Add(encodeLocSums(nil, nil), uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(1))
	multi, _ := locSumsFrames(false, nil, [][]PieceLoc{locs, nil}, [][]stream.SectionSum{nil, sums})
	f.Add(multi, uint8(2))
	f.Fuzz(func(t *testing.T, part []byte, arrays uint8) {
		if locs, sums, err := decodeLocSums(part, nil, nil); err == nil {
			b := encodeLocSums(locs, sums)
			if !bytes.Equal(b, part) {
				t.Fatalf("accepted a %d-byte frame its encoder writes as %d bytes", len(part), len(b))
			}
			l2, s2, err := decodeLocSums(b, nil, nil)
			if err != nil || !reflect.DeepEqual(l2, locs) || !reflect.DeepEqual(s2, sums) {
				t.Fatalf("decode(encode(%+v, %+v)) = %+v, %+v, %v", locs, sums, l2, s2, err)
			}
		}
		n := int(arrays % 4)
		locs, sums := make([][]PieceLoc, n), make([][]stream.SectionSum, n)
		if _, err := locSumsFrames(true, part, locs, sums); err != nil {
			return
		}
		b, _ := locSumsFrames(false, nil, locs, sums)
		l2, s2 := make([][]PieceLoc, n), make([][]stream.SectionSum, n)
		if _, err := locSumsFrames(true, b, l2, s2); err != nil || !reflect.DeepEqual(l2, locs) || !reflect.DeepEqual(s2, sums) {
			t.Fatalf("%d arrays: decode(encode(%+v, %+v)) = %+v, %+v, %v", n, locs, sums, l2, s2, err)
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
	f.Add([]byte{3, 6, 2}, uint8(1))                         // a filter not ascending
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0}, uint8(1)) // a count no frame could hold
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
// panic; an accepted verdict names an array of the count or none, and a
// piece only of an array; what either decodes comes back through encode
// and decode unchanged.
func FuzzDecodeReadCheck(f *testing.F) {
	sums, _ := readSums(false, nil, [][]PieceSum{{{Index: 2, Off: 600, CRC: 5, Bytes: 300}}, nil}, &[2]int64{300, 0})
	verdict, _ := verdictFrame(false, nil, &readVerdict{Array: 1, Piece: 2, Mem: 1 << 40, PFS: 7}, 2)
	f.Add(sums, verdict, uint8(2))
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add([]byte{5, 1, 2, 3, 4, 5, 0, 0}, []byte{1, 2, 0, 0}, uint8(1)) // a ragged record; a piece of no array
	f.Fuzz(func(t *testing.T, sums, verdict []byte, arrays uint8) {
		n := int(arrays % 4)
		pieces, tier := make([][]PieceSum, n), [2]int64{}
		if _, err := readSums(true, sums, pieces, &tier); err == nil {
			again, tier2 := make([][]PieceSum, n), [2]int64{}
			enc, _ := readSums(false, nil, pieces, &tier)
			if _, err := readSums(true, enc, again, &tier2); err != nil || !reflect.DeepEqual(again, pieces) || tier2 != tier {
				t.Fatalf("decode(encode(%v, %v)) = %v, %v, %v", pieces, tier, again, tier2, err)
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
// loads it: a tier or an error, never a panic. A tier holding the fuzzed
// bytes as one piece on two holders round-trips through SaveFile.
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
		_, _ = LoadTierFile(path)

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
		if data, ok := got.Lookup("job.g1", "u", index, crcOf(snap)); !ok || !bytes.Equal(data, snap) {
			t.Fatalf("piece %d lost in the round trip", index)
		}
	})
}
