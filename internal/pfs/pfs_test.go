package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

func small() *System { return NewSystem(Config{Servers: 4, StripeUnit: 16}) }

func TestWriteReadRoundTrip(t *testing.T) {
	s := small()
	data := []byte("the quick brown fox jumps over the lazy dog")
	if err := s.WriteAt(0, "f", data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := s.ReadAt(1, "f", got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	if sz, _ := s.Size("f"); sz != int64(len(data)) {
		t.Fatalf("Size = %d", sz)
	}
}

func TestWriteAtExtendsWithZeros(t *testing.T) {
	s := small()
	if err := s.WriteAt(0, "f", []byte{7}, 10); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 11)
	if err := s.ReadAt(0, "f", got, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d = %d, want 0", i, got[i])
		}
	}
	if got[10] != 7 {
		t.Fatalf("byte 10 = %d", got[10])
	}
}

func TestReadPastEnd(t *testing.T) {
	s := small()
	s.WriteAt(0, "f", []byte{1, 2, 3}, 0)
	err := s.ReadAt(0, "f", make([]byte, 4), 0)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestReadMissingFile(t *testing.T) {
	s := small()
	if err := s.ReadAt(0, "nope", make([]byte, 1), 0); err == nil {
		t.Fatal("read of missing file succeeded")
	}
}

func TestNegativeOffsetsRejected(t *testing.T) {
	s := small()
	if err := s.WriteAt(0, "f", []byte{1}, -1); err == nil {
		t.Fatal("negative write offset accepted")
	}
	s.WriteAt(0, "f", []byte{1}, 0)
	if err := s.ReadAt(0, "f", []byte{0}, -1); err == nil {
		t.Fatal("negative read offset accepted")
	}
}

func TestCreateTruncatesRemoveDeletes(t *testing.T) {
	s := small()
	s.WriteAt(0, "f", []byte{1, 2, 3}, 0)
	s.Create("f")
	if sz, _ := s.Size("f"); sz != 0 {
		t.Fatalf("size after Create = %d", sz)
	}
	s.Remove("f")
	if s.Exists("f") {
		t.Fatal("file survives Remove")
	}
}

func TestListPrefix(t *testing.T) {
	s := small()
	for _, n := range []string{"ck1.seg", "ck1.meta", "ck2.seg"} {
		s.WriteAt(0, n, []byte{1}, 0)
	}
	got := s.List("ck1.")
	if len(got) != 2 || got[0] != "ck1.meta" || got[1] != "ck1.seg" {
		t.Fatalf("List = %v", got)
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	s := NewSystem(Config{Servers: 8, StripeUnit: 32})
	const n = 16
	const chunk = 1000
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(c + 1)}, chunk)
			if err := s.WriteAt(c, "big", buf, int64(c*chunk)); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	got := make([]byte, n*chunk)
	if err := s.ReadAt(0, "big", got, 0); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < n; c++ {
		for i := 0; i < chunk; i++ {
			if got[c*chunk+i] != byte(c+1) {
				t.Fatalf("client %d byte %d = %d", c, i, got[c*chunk+i])
			}
		}
	}
}

func TestServerOfRoundRobin(t *testing.T) {
	s := NewSystem(Config{Servers: 4, StripeUnit: 16})
	cases := []struct {
		off  int64
		want int
	}{
		{0, 0}, {15, 0}, {16, 1}, {47, 2}, {48, 3}, {64, 0}, {65, 0},
	}
	for _, c := range cases {
		if got := s.ServerOf(c.off); got != c.want {
			t.Errorf("ServerOf(%d) = %d, want %d", c.off, got, c.want)
		}
	}
}

func TestTraceRecordsPhasesAndOps(t *testing.T) {
	s := small()
	tr := s.StartTrace()
	s.WriteAt(2, "f", []byte{1, 2}, 0)
	s.BeginPhase("arrays")
	s.ReadAt(3, "f", make([]byte, 1), 1)
	s.RecordNet(3, 512)
	if got := s.StopTrace(); got != tr {
		t.Fatal("StopTrace returned different trace")
	}
	// Ops after StopTrace are not recorded.
	s.WriteAt(0, "f", []byte{9}, 0)
	if len(tr.Ops) != 3 {
		t.Fatalf("trace has %d ops", len(tr.Ops))
	}
	if tr.Ops[0].Phase != 0 || !tr.Ops[0].Write || tr.Ops[0].Client != 2 || tr.Ops[0].Bytes != 2 {
		t.Fatalf("op0 = %+v", tr.Ops[0])
	}
	if tr.Ops[1].Phase != 1 || tr.Ops[1].Write || tr.Ops[1].Offset != 1 {
		t.Fatalf("op1 = %+v", tr.Ops[1])
	}
	if !tr.Ops[2].Net || tr.Ops[2].Bytes != 512 {
		t.Fatalf("op2 = %+v", tr.Ops[2])
	}
	if len(tr.Phases) != 2 || tr.Phases[1] != "arrays" {
		t.Fatalf("phases = %v", tr.Phases)
	}
	r, w := tr.Bytes()
	if r != 1 || w != 2 {
		t.Fatalf("Bytes = %d read, %d written", r, w)
	}
	if ops := tr.PhaseOps(1); len(ops) != 2 {
		t.Fatalf("PhaseOps(1) = %d ops", len(ops))
	}
}

func TestConcurrentTraceRecording(t *testing.T) {
	s := small()
	s.StartTrace()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.WriteAt(c, fmt.Sprintf("f%d", c), []byte{1}, int64(i))
			}
		}(c)
	}
	wg.Wait()
	tr := s.StopTrace()
	if len(tr.Ops) != 400 {
		t.Fatalf("trace has %d ops, want 400", len(tr.Ops))
	}
	for i, op := range tr.Ops {
		if op.Seq != i {
			t.Fatalf("op %d has Seq %d", i, op.Seq)
		}
	}
}

func TestSparseZeroPaddingCostsNoMemory(t *testing.T) {
	s := small()
	// A 10 MB zero write (checkpoint padding) must not materialize chunks.
	pad := make([]byte, 10<<20)
	if err := s.WriteAt(0, "seg", pad, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.StoredBytes(); got != 0 {
		t.Fatalf("StoredBytes = %d after all-zero write", got)
	}
	if sz, _ := s.Size("seg"); sz != 10<<20 {
		t.Fatalf("Size = %d", sz)
	}
	// Reads of the hole return zeros.
	buf := make([]byte, 100)
	buf[0] = 0xFF
	if err := s.ReadAt(0, "seg", buf, 5<<20); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("hole byte %d = %d", i, b)
		}
	}
	// Non-zero data inside the padded region still round-trips.
	if err := s.WriteAt(0, "seg", []byte{1, 2, 3}, 4<<20); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	s.ReadAt(0, "seg", got, 4<<20)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("data in padded region = %v", got)
	}
	if s.StoredBytes() == 0 {
		t.Fatal("non-zero write should materialize a chunk")
	}
}

func TestWriteStraddlingChunks(t *testing.T) {
	s := small()
	// Write crossing a chunk boundary with non-zero data on both sides.
	off := int64(chunkSize - 3)
	if err := s.WriteAt(0, "f", []byte{1, 2, 3, 4, 5, 6}, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if err := s.ReadAt(0, "f", got, off); err != nil {
		t.Fatal(err)
	}
	for i, want := range []byte{1, 2, 3, 4, 5, 6} {
		if got[i] != want {
			t.Fatalf("byte %d = %d, want %d", i, got[i], want)
		}
	}
}

func TestZeroOverwriteOfExistingChunk(t *testing.T) {
	s := small()
	s.WriteAt(0, "f", []byte{9, 9, 9}, 0)
	// Overwriting materialized data with zeros must actually zero it
	// (existing chunks take the write even when it is all zeros).
	s.WriteAt(0, "f", []byte{0, 0, 0}, 0)
	got := make([]byte, 3)
	s.ReadAt(0, "f", got, 0)
	if got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("zero overwrite lost: %v", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewSystem(Config{Servers: 4, StripeUnit: 64})
	s.WriteAt(0, "a", []byte("hello parallel world"), 0)
	s.WriteAt(1, "b", []byte{1, 2, 3}, 1000)          // leading hole
	s.WriteAt(2, "pad", make([]byte, 3*chunkSize), 0) // sparse zeros

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r := NewSystem(Config{Servers: 1, StripeUnit: 1}) // geometry replaced by Load
	if err := r.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if r.Config() != s.Config() {
		t.Fatalf("config %+v", r.Config())
	}
	got := make([]byte, 20)
	if err := r.ReadAt(0, "a", got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello parallel world" {
		t.Fatalf("a = %q", got)
	}
	b3 := make([]byte, 3)
	if err := r.ReadAt(0, "b", b3, 1000); err != nil {
		t.Fatal(err)
	}
	if b3[0] != 1 || b3[2] != 3 {
		t.Fatalf("b = %v", b3)
	}
	if sz, _ := r.Size("pad"); sz != 3*chunkSize {
		t.Fatalf("pad size %d", sz)
	}
	// Sparsity survives the snapshot.
	if r.StoredBytes() != s.StoredBytes() {
		t.Fatalf("stored bytes %d != %d", r.StoredBytes(), s.StoredBytes())
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/state.pfs"
	s := NewSystem(Config{Servers: 2, StripeUnit: 32})
	s.WriteAt(0, "x", []byte("persist me"), 0)
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r := NewSystem(Config{Servers: 2, StripeUnit: 32})
	if err := r.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	if err := r.ReadAt(0, "x", got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist me" {
		t.Fatalf("x = %q", got)
	}
	if err := r.LoadFile(dir + "/missing"); err == nil {
		t.Fatal("loading missing snapshot succeeded")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	s := NewSystem(Config{Servers: 1, StripeUnit: 16})
	if err := s.Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// TestWholeChunkWrite covers the chunk a write fills completely, which is
// allocated by copying the caller's bytes: the copy is the file's own, an
// all-zero whole chunk still costs nothing, a later partial write lands in
// it, and it survives a snapshot.
func TestWholeChunkWrite(t *testing.T) {
	s := small()
	// Three chunks starting mid-chunk: a partial first, a whole all-zero,
	// a whole non-zero, and a partial last one.
	data := make([]byte, 3*chunkSize)
	off := int64(chunkSize / 2)
	for i := range data {
		if at := off + int64(i); at < chunkSize || at >= 2*chunkSize {
			data[i] = byte(i%251) + 1
		}
	}
	want := bytes.Clone(data)
	if err := s.WriteAt(0, "f", data, off); err != nil {
		t.Fatal(err)
	}
	if got := s.StoredBytes(); got != 3*chunkSize {
		t.Fatalf("StoredBytes = %d: the all-zero whole chunk must stay a hole, the other three materialize", got)
	}
	// The caller's buffer is the caller's again once WriteAt returns.
	for i := range data {
		data[i] = 0xEE
	}
	read := func(s *System) []byte {
		got := make([]byte, len(want))
		if err := s.ReadAt(0, "f", got, off); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if !bytes.Equal(read(s), want) {
		t.Fatal("file changed when the written buffer was reused")
	}
	// A partial overwrite inside the cloned chunk, and one into the hole.
	patch := []byte{7, 0, 7}
	for _, at := range []int64{2*chunkSize + 100, chunkSize + 100} {
		if err := s.WriteAt(0, "f", patch, at); err != nil {
			t.Fatal(err)
		}
		copy(want[at-off:], patch)
	}
	if !bytes.Equal(read(s), want) {
		t.Fatal("partial overwrite of a whole-chunk write read back wrong")
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	r := small()
	if err := r.Load(&snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(r), want) || r.StoredBytes() != s.StoredBytes() {
		t.Fatal("snapshot of a whole-chunk write did not round-trip")
	}
}

// ServerOf returns the server node holding the stripe unit containing
// byte offset off.
func (s *System) ServerOf(off int64) int {
	return int((off / int64(s.cfg.StripeUnit)) % int64(s.cfg.Servers))
}
