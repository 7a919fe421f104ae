package ckpt

import (
	"errors"
	"hash/crc64"
	"math/rand"
	"strings"
	"testing"

	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/seg"
	"drms/internal/stream"
)

func TestCombinePiecesAnyPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	data := make([]byte, 10000)
	rng.Read(data)
	tab := crc64.MakeTable(crc64.ECMA)
	want := crc64.Checksum(data, tab)
	for iter := 0; iter < 20; iter++ {
		// Random partition into pieces, presented shuffled.
		var pieces []PieceSum
		for off, idx := 0, 0; off < len(data); idx++ {
			n := 1 + rng.Intn(3000)
			if off+n > len(data) {
				n = len(data) - off
			}
			pieces = append(pieces, PieceSum{Index: idx,
				CRC: crc64.Checksum(data[off:off+n], tab), Bytes: int64(n)})
			off += n
		}
		rng.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })
		if got := combinePieces(pieces); got != want {
			t.Fatalf("partition %d: %016x != %016x", iter, got, want)
		}
	}
}

func TestVerifyCleanCheckpoint(t *testing.T) {
	fs := testFS()
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 2})
		u.Fill(coordVal)
		ids.Fill(func(cd []int) int32 { return int32(cd[0]) })
		if _, err := WriteDRMS(fs, "ck", c, sg, refs, stream.Options{PieceBytes: 300}); err != nil {
			panic(err)
		}
	})
	if err := Verify(fs, "ck", 0); err != nil {
		t.Fatalf("clean checkpoint fails verification: %v", err)
	}

	// SPMD mode too.
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, u, _ := buildApp(c, []int{2, 1})
		u.Fill(coordVal)
		if _, err := WriteSPMD(fs, "sp", c, sg, refs, stream.Options{}); err != nil {
			panic(err)
		}
	})
	if err := Verify(fs, "sp", 0); err != nil {
		t.Fatalf("clean SPMD checkpoint fails verification: %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	forEachEra(t, func(t *testing.T, fs *pfs.System) {
		// Flip one byte in the middle of u's stored stream.
		file := flipStored(t, fs, "job.g0", "u", 123, 1)
		err := Verify(fs, "job.g0", 0)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.File != file || !strings.Contains(err.Error(), "integrity") {
			t.Fatalf("corruption of %s not detected: %v", file, err)
		}
		// And the restart refuses to load the damaged array.
		mustRun(t, 2, func(c *msg.Comm) {
			sg, refs, _, _ := buildApp(c, []int{2, 1})
			var iter int
			sg.Register("iter", &iter)
			_, _, err := ReadDRMSOpts(fs, "job.g0", c, sg, refs, stream.Options{}, RestoreOptions{})
			if err == nil || !strings.Contains(err.Error(), "integrity") {
				panic("restart accepted a corrupted array: " + errStr(err))
			}
		})
	})
}

func TestRestartDetectsCorruptSegment(t *testing.T) {
	fs := testFS()
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, u, _ := buildApp(c, []int{2, 1})
		iter := 3
		sg.Register("iter", &iter)
		u.Fill(coordVal)
		if _, err := WriteDRMS(fs, "ck", c, sg, refs, stream.Options{}); err != nil {
			panic(err)
		}
	})
	// Corrupt a padding byte deep inside the segment file (past the
	// payload): caught only because the whole image is checksummed.
	sz, _ := fs.Size("ck.seg")
	if err := fs.WriteAt(0, "ck.seg", []byte{1}, sz-10); err != nil {
		t.Fatal(err)
	}
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, _, _ := buildApp(c, []int{2, 1})
		var iter int
		sg.Register("iter", &iter)
		_, _, err := ReadDRMSOpts(fs, "ck", c, sg, refs, stream.Options{}, RestoreOptions{})
		if err == nil || !strings.Contains(err.Error(), "integrity") {
			panic("restart accepted a corrupted segment: " + errStr(err))
		}
	})
	if err := Verify(fs, "ck", 0); err == nil {
		t.Fatal("Verify missed segment corruption")
	}
}

func TestVerifyDetectsTruncation(t *testing.T) {
	forEachEra(t, func(t *testing.T, fs *pfs.System) {
		// Replace a payload file with a shorter one.
		file := truncateStored(t, fs, "job.g0", "ids")
		err := Verify(fs, "job.g0", 0)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.File != file {
			t.Fatalf("truncation of %s not detected: %v", file, err)
		}
	})
}

func TestReconfiguredRestartStillVerifies(t *testing.T) {
	// The reader partitions the stream differently (different task count
	// and piece size) yet the combined CRC must still match.
	fs := testFS()
	mustRun(t, 6, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{3, 2})
		u.Fill(coordVal)
		ids.Fill(func(cd []int) int32 { return int32(cd[1]) })
		if _, err := WriteDRMS(fs, "ck", c, sg, refs, stream.Options{PieceBytes: 256}); err != nil {
			panic(err)
		}
	})
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, _, _ := buildApp(c, []int{2, 2})
		if _, _, err := ReadDRMSOpts(fs, "ck", c, sg, refs, stream.Options{PieceBytes: 999}, RestoreOptions{}); err != nil {
			panic(err)
		}
	})
}

// TestOneRoundAttributesTheCorruptPiece damages one stored piece of a
// raw anchor and restores it three ways. Every restore pays one integrity
// round per array (checkPieces), and every rank returns the same
// *CorruptError: a verified same-plan restore and a partial restore name
// the piece; an unverified one only knows the stream's CRC is wrong.
func TestOneRoundAttributesTheCorruptPiece(t *testing.T) {
	fs := testFS()
	writeChainGen(t, fs, "job.g0", ChainOptions{Codec: CodecRaw}, 0, 4, []int{2, 2})
	m, err := ReadMeta(fs, "job.g0", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Stream byte 8 is u's element (1,0): a rank-0 element on the 2×2 grid.
	const off = 8
	want := -1
	for _, l := range m.PieceLocs[0] {
		if l.Off <= off && off < l.Off+l.Bytes {
			want = l.Index
		}
	}
	if m.Arrays[0].Name != "u" || want < 0 {
		t.Fatalf("no stored piece of u covers stream byte %d", off)
	}
	flipStored(t, fs, "job.g0", "u", off, 1)
	for _, tc := range []struct {
		name    string
		restore func(c *msg.Comm, sg *seg.Segment, refs []ArrayRef) error
		piece   int
	}{
		{"verified", func(c *msg.Comm, sg *seg.Segment, refs []ArrayRef) error {
			_, _, err := ReadDRMSOpts(fs, "job.g0", c, sg, refs, stream.Options{PieceBytes: 300}, RestoreOptions{Verify: true})
			return err
		}, want},
		{"unverified", func(c *msg.Comm, sg *seg.Segment, refs []ArrayRef) error {
			_, _, err := ReadDRMSOpts(fs, "job.g0", c, sg, refs, stream.Options{PieceBytes: 300}, RestoreOptions{})
			return err
		}, -1},
		{"partial", func(c *msg.Comm, sg *seg.Segment, refs []ArrayRef) error {
			_, _, err := ReadDRMSPartial(fs, "job.g0", c, sg, refs, stream.Options{PieceBytes: 300},
				PartialRestoreOptions{Ranks: []int{0}, NeedSegment: c.Rank() == 0})
			return err
		}, want},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := make([]error, 4)
			mustRun(t, 4, func(c *msg.Comm) {
				sg, refs, _, _ := buildApp(c, []int{2, 2})
				var iter int
				sg.Register("iter", &iter)
				errs[c.Rank()] = tc.restore(c, sg, refs)
			})
			for r, err := range errs {
				var ce *CorruptError
				if !errors.As(err, &ce) || ce.Piece != tc.piece || ce.File != arrFile("job.g0", "u") {
					t.Fatalf("rank %d: %v, want a *CorruptError naming piece %d of %s", r, err, tc.piece, arrFile("job.g0", "u"))
				}
			}
		})
	}
}

func errStr(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
