package ckpt

import (
	"errors"
	"hash/crc64"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

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
// raw anchor's first array, and of its second in another copy, and
// restores each three ways. Every restore judges all arrays in one
// integrity round (checkRead), after reading them all, and every rank
// returns the same *CorruptError: a verified same-plan restore and a
// partial restore name the piece; an unverified one only knows the
// stream's CRC is wrong.
func TestOneRoundAttributesTheCorruptPiece(t *testing.T) {
	type damaged struct {
		fs    *pfs.System
		arr   string
		piece int
	}
	var cases []damaged
	// Stream byte off is element (1,0) of the array: a rank-0 element on
	// the 2×2 grid.
	for _, arr := range []struct {
		name string
		off  int64
	}{{"u", 8}, {"ids", 4}} {
		fs := testFS()
		writeChainGen(t, fs, "job.g0", ChainOptions{Codec: CodecRaw}, 0, 4, []int{2, 2})
		m, err := ReadMeta(fs, "job.g0", 0)
		if err != nil {
			t.Fatal(err)
		}
		d := damaged{fs, arr.name, -1}
		for i, am := range m.Arrays {
			for _, l := range m.PieceLocs[i] {
				if am.Name == arr.name && l.Off <= arr.off && arr.off < l.Off+l.Bytes {
					d.piece = l.Index
				}
			}
		}
		if d.piece < 0 {
			t.Fatalf("no stored piece of %s covers stream byte %d", arr.name, arr.off)
		}
		flipStored(t, fs, "job.g0", arr.name, arr.off, 1)
		cases = append(cases, d)
	}
	for _, tc := range []struct {
		name      string
		restore   func(fs *pfs.System, c *msg.Comm, sg *seg.Segment, refs []ArrayRef) error
		attribute bool
	}{
		{"verified", func(fs *pfs.System, c *msg.Comm, sg *seg.Segment, refs []ArrayRef) error {
			_, _, err := ReadDRMSOpts(fs, "job.g0", c, sg, refs, stream.Options{PieceBytes: 300}, RestoreOptions{Verify: true})
			return err
		}, true},
		{"unverified", func(fs *pfs.System, c *msg.Comm, sg *seg.Segment, refs []ArrayRef) error {
			_, _, err := ReadDRMSOpts(fs, "job.g0", c, sg, refs, stream.Options{PieceBytes: 300}, RestoreOptions{})
			return err
		}, false},
		{"partial", func(fs *pfs.System, c *msg.Comm, sg *seg.Segment, refs []ArrayRef) error {
			_, _, err := ReadDRMSPartial(fs, "job.g0", c, sg, refs, stream.Options{PieceBytes: 300},
				PartialRestoreOptions{Ranks: []int{0}, NeedSegment: c.Rank() == 0})
			return err
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, d := range cases {
				errs := make([]error, 4)
				mustRun(t, 4, func(c *msg.Comm) {
					sg, refs, _, _ := buildApp(c, []int{2, 2})
					var iter int
					sg.Register("iter", &iter)
					errs[c.Rank()] = tc.restore(d.fs, c, sg, refs)
				})
				piece, file := -1, arrFile("job.g0", d.arr)
				if tc.attribute {
					piece = d.piece
				}
				for r, err := range errs {
					var ce *CorruptError
					if !errors.As(err, &ce) || ce.Piece != piece || ce.File != file || ce.Prefix != "job.g0" {
						t.Fatalf("rank %d: %v, want a *CorruptError naming piece %d of %s", r, err, piece, file)
					}
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

// TestCorruptControlFrameFailsEveryRank sends rank 0 a frame it cannot
// decode in each of an SOP's gathers — a delta's fingerprints and a
// restore's piece CRCs — from rank 1, which then decodes rank 0's
// broadcast as every task does. Rank 0 fails on the frame, and the empty
// broadcast it sends instead fails every other task: nobody waits for a
// revocation, and nobody acts on a decision rank 0 never made.
func TestCorruptControlFrameFailsEveryRank(t *testing.T) {
	const n = 3
	garbage := []byte{0xff, 0xff, 0xff}
	m := &Meta{Arrays: []ArrayMeta{{Name: "u"}, {Name: "ids"}}, PieceLocs: make([][]PieceLoc, 2), ArrayCRC: make([]uint64, 2)}
	for _, round := range []struct {
		name string
		run  func(c *msg.Comm) error // ranks 0 and 2
		peer func(payload []byte) error
	}{
		{"delta decision", func(c *msg.Comm) error {
			_, refs, _, _ := buildApp(c, []int{1, n})
			_, _, err := decideDelta(testFS(), c, "job", refs, make([]string, 2), make([][]stream.SectionSum, 2),
				make([][]int, 2), ChainOptions{Prev: "job.g0", Delta: true})
			return err
		}, func(payload []byte) error {
			_, err := pieceFilters(true, payload, make([][]int, 2))
			return err
		}},
		{"restore check", func(c *msg.Comm) error {
			_, err := checkRead(c, "job.g0", m, make([][]PieceSum, 2), [2]int64{}, true, true)
			return err
		}, func(payload []byte) error {
			_, err := verdictFrame(true, payload, new(readVerdict), 2)
			return err
		}},
		{"partial restore plan", func(c *msg.Comm) error {
			_, _, _, err := decideSubset(testFS(), "job.g0", c, m, nil, stream.Options{}, restorePlan{subset: true}, c.Rank(), nil)
			return err
		}, func(payload []byte) error {
			_, err := subsetFrame(true, payload, new(subsetVerdict), n)
			return err
		}},
	} {
		t.Run(round.name, func(t *testing.T) {
			tr := msg.NewLocalTransport(n)
			errs := make([]error, n)
			done := make(chan struct{})
			go func() {
				defer close(done)
				var wg sync.WaitGroup
				for r := range n {
					wg.Add(1)
					go func() {
						defer wg.Done()
						c := msg.NewComm(r, n, tr)
						if r != 1 {
							errs[r] = round.run(c)
							return
						}
						_, err := c.Gather(0, garbage)
						var payload []byte
						if err == nil {
							payload, err = c.Bcast(0, nil)
						}
						if err == nil {
							err = round.peer(payload)
						}
						errs[r] = err
					}()
				}
				wg.Wait()
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				tr.Abort(msg.ErrRevoked)
				t.Fatal("a rank waits on a round rank 0 abandoned")
			}
			for r, err := range errs {
				if err == nil {
					t.Errorf("rank %d: no error from a corrupt %s frame", r, round.name)
				}
			}
		})
	}
}
