package ckpt

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"drms/internal/msg"
	"drms/internal/seg"
	"drms/internal/stream"
)

// segmentBytes checkpoints buildApp with "iter" and a size model on 4
// tasks and returns the segment payload, the segment file and its SegCRC.
func segmentBytes(t *testing.T) [][]byte {
	fs := testFS()
	var payload []byte
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 2})
		iter, dt := 9, 0.25
		sg.Register("iter", &iter)
		sg.Register("dt", &dt)
		sg.Model = seg.SizeModel{LocalSectionBytes: 64, PrivateBytes: 512}
		uf, idf := chainFill(9)
		u.Fill(uf)
		ids.Fill(idf)
		if _, err := WriteDRMS(fs, "ck", c, sg, refs, stream.Options{PieceBytes: 300}); err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			var err error
			if payload, err = sg.Encode(); err != nil {
				panic(err)
			}
		}
	})
	m, err := ReadMeta(fs, "ck", 0)
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{payload, fileBytes(t, fs, segFile("ck")), fmt.Appendf(nil, "%016x", m.SegCRC[0])}
}

// TestSegmentBytesIndependentOfGobHistory: a checkpoint's segment is a
// function of the segment alone. A child process that gob-encodes an
// unrelated struct before its first checkpoint — which renumbers every
// gob type it meets after — writes the same payload, segment file and
// SegCRC as this process.
func TestSegmentBytesIndependentOfGobHistory(t *testing.T) {
	if flag.Arg(0) == gobHistoryChild {
		if err := gob.NewEncoder(io.Discard).Encode(struct {
			Unrelated []string
			N         map[string]int
		}{[]string{"x"}, map[string]int{"y": 1}}); err != nil {
			t.Fatal(err)
		}
		for _, b := range segmentBytes(t) {
			fmt.Printf("bytes %s\n", hex.EncodeToString(b))
		}
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestSegmentBytesIndependentOfGobHistory$", "-test.count=1",
		"--", gobHistoryChild).CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var child [][]byte
	for _, line := range strings.Split(string(out), "\n") {
		if h, ok := strings.CutPrefix(line, "bytes "); ok {
			b, err := hex.DecodeString(h)
			if err != nil {
				t.Fatal(err)
			}
			child = append(child, b)
		}
	}
	mine := segmentBytes(t)
	if len(child) != len(mine) {
		t.Fatalf("child printed %d values, want %d:\n%s", len(child), len(mine), out)
	}
	for i, name := range []string{"payload", "segment file", "SegCRC"} {
		if !bytes.Equal(child[i], mine[i]) {
			t.Errorf("%s: %d bytes in the child, %d here, not identical", name, len(child[i]), len(mine[i]))
		}
	}
}

// gobSegment is the segment payload an earlier build wrote for
// writeChainGen's segment at step: a gob record of the context, the size
// model, the names and their blobs.
func gobSegment(t testing.TB, step, tasks int) []byte {
	t.Helper()
	var blob, payload bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(&step); err != nil {
		t.Fatal(err)
	}
	err := gob.NewEncoder(&payload).Encode(struct {
		Ctx   seg.Context
		Model seg.SizeModel
		Names []string
		Blobs [][]byte
	}{seg.Context{Tasks: tasks}, seg.SizeModel{}, []string{"iter"}, [][]byte{blob.Bytes()}})
	if err != nil {
		t.Fatal(err)
	}
	return payload.Bytes()
}

// TestGobSegmentIsLegacy: a generation whose segment an earlier build
// wrote in gob — on disk, or in peer memory for a diskless generation —
// is intact, not corrupt. Verify, verified resolution and the restore
// engine all refuse it with ErrLegacyFormat, quarantining nothing and
// touching no file.
func TestGobSegmentIsLegacy(t *testing.T) {
	fs, tier := testFS(), NewMemTier()
	co := ChainOptions{Tier: tier, Replicas: 1, Codec: CodecRaw}
	writeChainGen(t, fs, "job.g0", co, 0, 4, []int{2, 2})
	co.Prev, co.Delta, co.MemOnly = "job.g0", true, true
	writeChainGen(t, fs, "disk.g0", ChainOptions{Codec: CodecRaw}, 0, 4, []int{2, 2})
	writeChainGen(t, fs, "job.g1", co, 1, 4, []int{2, 2})

	// disk.g0's segment file and job.g1's tier copy become gob records,
	// their metadata recommitted as an earlier build committed it.
	old := gobSegment(t, 0, 4)
	m, err := ReadMeta(fs, "disk.g0", 0)
	if err != nil {
		t.Fatal(err)
	}
	m.SegBytes[0] = int64(segHeader + len(old))
	if m.SegCRC[0], err = writeSegmentFile(fs, segFile("disk.g0"), 0, old, m.SegBytes[0]); err != nil {
		t.Fatal(err)
	}
	if err := writeMeta(fs, "disk.g0", 0, m); err != nil {
		t.Fatal(err)
	}
	old = gobSegment(t, 1, 4)
	if m, err = ReadMeta(fs, "job.g1", 0); err != nil {
		t.Fatal(err)
	}
	m.SegCRC[0] = crcOf(old)
	tier.Publish([]int{0, 1, 2, 3}, "job.g1", "", segIndex, old, m.SegCRC[0])
	if err := writeMeta(fs, "job.g1", 0, m); err != nil {
		t.Fatal(err)
	}

	before := fs.List("")
	for _, p := range []string{"disk", "job"} {
		if err := VerifyTier(fs, tier, p, 0); !errors.Is(err, ErrLegacyFormat) {
			t.Errorf("verify %s: %v, want ErrLegacyFormat", p, err)
		}
		if _, q, ok, err := ResolveVerifiedTier(fs, tier, p); ok || len(q) != 0 || !errors.Is(err, ErrLegacyFormat) {
			t.Errorf("resolve %s: ok %v, quarantined %v, %v; want ErrLegacyFormat", p, ok, q, err)
		}
		gen, _ := Resolve(fs, p)
		mustRun(t, 3, func(c *msg.Comm) {
			sg, refs, _, _ := buildApp(c, []int{3, 1})
			var iter int
			sg.Register("iter", &iter)
			if _, _, err := ReadDRMSOpts(fs, gen, c, sg, refs, stream.Options{}, RestoreOptions{Tier: tier}); !errors.Is(err, ErrLegacyFormat) {
				panic(fmt.Sprintf("restore of %s: %v, want ErrLegacyFormat", gen, err))
			}
		})
	}
	if after := fs.List(""); !slices.Equal(before, after) {
		t.Fatalf("files changed: %v -> %v", before, after)
	}
	if tier.Replicas("job.g1", "", segIndex, m.SegCRC[0]) == 0 {
		t.Fatal("the legacy generation's tier copy was dropped")
	}
}
