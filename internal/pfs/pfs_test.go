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
	s.BeginPhase(3, "arrays")
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

// TestPhaseFollowsItsClient interleaves two clients across phase
// boundaries: an operation lands in the phase its own client last
// entered, however far the other has run ahead; a client entering a
// phase the other opened since its own last one joins it; and a name
// entered again after that opens a new phase.
func TestPhaseFollowsItsClient(t *testing.T) {
	s := small()
	check := func(tr *Trace, phases []string, at []int) {
		t.Helper()
		if fmt.Sprint(tr.Phases) != fmt.Sprint(phases) {
			t.Fatalf("phases %q, want %q", tr.Phases, phases)
		}
		var got []int
		for _, op := range tr.Ops {
			got = append(got, op.Phase)
		}
		if fmt.Sprint(got) != fmt.Sprint(at) {
			t.Fatalf("operations in phases %v, want %v", got, at)
		}
	}
	tr := s.StartTrace()
	b := []byte{1}
	s.WriteAt(0, "meta", b, 0)  // client 0 before any phase: 0
	s.BeginPhase(0, "segment")  // opens 1
	s.WriteAt(0, "seg", b, 0)   // 1
	s.ReadAt(1, "meta", b, 0)   // client 1 has entered none yet: 0
	s.BeginPhase(0, "arrays:u") // opens 2
	s.BeginPhase(1, "segment")  // joins 1
	s.ReadAt(1, "seg", b, 0)    // 1
	s.WriteAt(0, "u", b, 0)     // 2
	s.BeginPhase(1, "arrays:u") // joins 2
	s.RecordNet(1, 8)           // 2
	s.BeginPhase(1, "segment")  // client 1 leads the next round: opens 3
	s.WriteAt(0, "u", b, 1)     // still 2
	s.BeginPhase(0, "segment")  // joins 3, not its own earlier 1
	s.WriteAt(0, "seg", b, 1)   // 3
	s.StopTrace()
	check(tr, []string{"", "segment", "arrays:u", "segment"}, []int{0, 1, 0, 1, 2, 2, 2, 3})

	// A client a whole round behind joins its own round's phase, not the
	// newest one under the name.
	tr = s.StartTrace()
	s.BeginPhase(1, "segment")  // opens 1
	s.BeginPhase(1, "arrays:u") // opens 2
	s.BeginPhase(1, "segment")  // opens 3
	s.ReadAt(1, "seg", b, 0)    // 3
	s.BeginPhase(0, "segment")  // joins 1
	s.ReadAt(0, "seg", b, 0)    // 1
	s.BeginPhase(0, "arrays:u") // joins 2
	s.ReadAt(0, "u", b, 0)      // 2
	s.StopTrace()
	check(tr, []string{"", "segment", "arrays:u", "segment"}, []int{3, 1, 2})
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
	if got := s.StoredBytes(); got != 5*chunkSize/2 {
		t.Fatalf("StoredBytes = %d: the all-zero whole chunk must stay a hole, the other three materialize up to the write's end", got)
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

// TestChunkHoldsOnlyBytesWritten pins the chunk's footprint: a write
// that opens a chunk allocates up to its own end and no further, a later
// write past that end grows the chunk geometrically up to chunkSize, and
// every byte the chunk does not hold reads as zero, before and after a
// snapshot round trip.
func TestChunkHoldsOnlyBytesWritten(t *testing.T) {
	s := small()
	want := make([]byte, chunkSize+40)
	write := func(p []byte, off int64) {
		t.Helper()
		if err := s.WriteAt(0, "f", p, off); err != nil {
			t.Fatal(err)
		}
		copy(want[off:], p)
	}
	chunk := func(ci int64) []byte {
		f, err := s.get("f", false)
		if err != nil {
			t.Fatal(err)
		}
		return f.chunks[ci]
	}
	fill := func(n int, v byte) []byte { return bytes.Repeat([]byte{v}, n) }

	write(fill(300, 1), 0)
	if got := len(chunk(0)); got != 300 {
		t.Fatalf("a 300-byte write opened a %d-byte chunk", got)
	}
	write(fill(100, 2), 1000) // past the end: the gap reads as zeros
	if c := chunk(0); len(c) != 1100 || cap(c) != 1100 {
		t.Fatalf("after a write ending at 1100: len %d cap %d, want 1100 and max(1100, 2·300)", len(c), cap(c))
	}
	write(fill(10, 3), 1100)
	if c := chunk(0); len(c) != 1110 || cap(c) != 2200 {
		t.Fatalf("after a write ending at 1110: len %d cap %d, want 1110 and 2·1100", len(c), cap(c))
	}
	write(fill(20, 4), 500) // inside: no growth
	if c := chunk(0); len(c) != 1110 || cap(c) != 2200 {
		t.Fatalf("a write inside the chunk resized it: len %d cap %d", len(c), cap(c))
	}
	write(fill(50, 5), chunkSize-10) // to the chunk's end, and 40 bytes into the next
	if c := chunk(0); len(c) != chunkSize || cap(c) != chunkSize {
		t.Fatalf("a chunk grew to len %d cap %d, past chunkSize", len(c), cap(c))
	}
	if got := len(chunk(1)); got != 40 {
		t.Fatalf("the straddling write opened a %d-byte second chunk, want 40", got)
	}
	write(fill(30, 6), 4000) // into the middle of a hole-free chunk's zeros
	if got := s.StoredBytes(); got != chunkSize+40 {
		t.Fatalf("StoredBytes = %d, want %d", got, chunkSize+40)
	}
	if !bytes.Equal(readAll(t, s, "f"), want) {
		t.Fatal("file read back wrong")
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	r := small()
	if err := r.Load(&snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAll(t, r, "f"), want) || r.StoredBytes() != s.StoredBytes() {
		t.Fatal("snapshot did not round-trip")
	}

	// A segment file: a header, a payload, then zero padding to the
	// modeled size, written in pieces. The padding stores nothing, and a
	// zero write over the chunk's end clears only what the chunk holds.
	seg := small()
	segWant := make([]byte, 3*chunkSize)
	for _, w := range []struct {
		p   []byte
		off int64
	}{{fill(8, 7), 0}, {fill(249, 8), 8}, {make([]byte, 4<<10), 257}, {make([]byte, 3*chunkSize-(4<<10)-257), 257 + 4<<10}, {make([]byte, 100), 200}} {
		if err := seg.WriteAt(0, "seg", w.p, w.off); err != nil {
			t.Fatal(err)
		}
		copy(segWant[w.off:], w.p)
	}
	f, err := seg.get("seg", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.chunks) != 1 || len(f.chunks[0]) != 257 {
		t.Fatalf("a 257-byte segment padded to 3 chunks holds %d chunks, the first %d bytes; want 1 of 257", len(f.chunks), len(f.chunks[0]))
	}
	if !bytes.Equal(readAll(t, seg, "seg"), segWant) || seg.StoredBytes() != 200 {
		t.Fatalf("segment file read back wrong, or StoredBytes %d, want 200", seg.StoredBytes())
	}
}

// BenchmarkSmallFileWrite writes eight files of 300 B to 8 KiB — the sizes
// of metadata records, segments and coordinator records — each freshly
// created, so allocs/op and B/op are what the store spends on small files.
func BenchmarkSmallFileWrite(b *testing.B) {
	s := small()
	sizes := []int{300, 363, 257, 763, 1 << 10, 2 << 10, 4 << 10, 8 << 10}
	data := bytes.Repeat([]byte{0xA5}, 8<<10)
	names := make([]string, len(sizes))
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, n := range sizes {
			s.Create(names[j])
			if err := s.WriteAt(0, names[j], data[:n], 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ServerOf returns the server node holding the stripe unit containing
// byte offset off.
func (s *System) ServerOf(off int64) int {
	return int((off / int64(s.cfg.StripeUnit)) % int64(s.cfg.Servers))
}
