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

// metaBytes returns the stored metadata record of prefix.
func metaBytes(t testing.TB, fs *pfs.System, prefix string) []byte {
	t.Helper()
	sz, err := fs.Size(metaFile(prefix))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, sz)
	if err := fs.ReadAt(0, metaFile(prefix), b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzReadMeta stores arbitrary bytes as the metadata x.meta beside the
// payload files of golden_v2.pfs, renamed under x, on a fresh file system,
// and reads and verifies the checkpoint. A result or an error are the only
// outcomes: no metadata record may panic a reader. Seeded with the
// golden's own record, a StateStore generation's and an SPMD
// checkpoint's.
func FuzzReadMeta(f *testing.F) {
	golden := pfs.NewSystem(pfs.DefaultConfig())
	if err := golden.LoadFile("testdata/golden_v2.pfs"); err != nil {
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
		// The first read may decode and the second finds it in the memo:
		// the answer must not depend on which.
		m, err := ReadMeta(fs, "x", 0)
		again, errAgain := ReadMeta(fs, "x", 0)
		switch {
		case (err == nil) != (errAgain == nil):
			t.Fatalf("reading the same bytes twice: %v, then %v", err, errAgain)
		case err != nil && err.Error() != errAgain.Error():
			t.Fatalf("reading the same bytes twice: %v, then %v", err, errAgain)
		case err == nil && !reflect.DeepEqual(m, again):
			t.Fatalf("reading the same bytes twice: %+v, then %+v", m, again)
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

// FuzzDecodeLocSums feeds the piece-location gather decoder an arbitrary
// frame: records or an error, never a panic. A frame it accepts is one
// its encoder writes, byte for byte, and what it decodes comes back
// through encode and decode unchanged.
func FuzzDecodeLocSums(f *testing.F) {
	f.Add(encodeLocSums([]PieceLoc{{PieceSum: PieceSum{Index: 3, Off: 900, CRC: 7, Bytes: 300},
		Gen: -1, Task: 2, FileOff: 10, FileBytes: 120, Codec: 1, StoredCRC: 8, Where: TierMem}},
		[]stream.SectionSum{{Piece: 3, Task: 2, Bytes: 8, CRC: 9}}))
	f.Add(encodeLocSums(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, part []byte) {
		locs, sums, err := decodeLocSums(part, nil, nil)
		if err != nil {
			return
		}
		b := encodeLocSums(locs, sums)
		if !bytes.Equal(b, part) {
			t.Fatalf("accepted a %d-byte frame its encoder writes as %d bytes", len(part), len(b))
		}
		l2, s2, err := decodeLocSums(b, nil, nil)
		if err != nil || !reflect.DeepEqual(l2, locs) || !reflect.DeepEqual(s2, sums) {
			t.Fatalf("decode(encode(%+v, %+v)) = %+v, %+v, %v", locs, sums, l2, s2, err)
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
