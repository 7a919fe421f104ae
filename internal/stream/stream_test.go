package stream

import (
	"fmt"
	"testing"

	"drms/internal/array"
	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
)

func testFS() *pfs.System {
	return pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 128})
}

func coordVal(c []int) float64 {
	v := 0.0
	for i, x := range c {
		v = v*1000 + float64(x) + float64(i)*0.5
	}
	return v
}

func mustBlock(g rangeset.Slice, grid []int) *dist.Distribution {
	d, err := dist.Block(g, grid)
	if err != nil {
		panic(err)
	}
	return d
}

// referenceStream computes the expected file bytes for section x of a
// coordVal-filled array: the plain linearization, element by element.
func referenceStream(x rangeset.Slice, order rangeset.Order) []byte {
	var vals []float64
	x.Each(order, func(c []int) {
		vals = append(vals, coordVal(c))
	})
	return array.EncodeElems(vals)
}

func TestWriteMatchesLinearization(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{15, 15})
	sections := map[string]rangeset.Slice{
		"full":      g,
		"interior":  rangeset.Box([]int{3, 2}, []int{12, 13}),
		"strided":   rangeset.NewSlice(rangeset.Reg(0, 15, 3), rangeset.Span(4, 9)),
		"irregular": rangeset.NewSlice(rangeset.List(1, 2, 5, 11), rangeset.List(0, 7, 8, 15)),
	}
	for sname, x := range sections {
		for _, order := range []rangeset.Order{rangeset.ColMajor, rangeset.RowMajor} {
			x, order := x, order
			t.Run(fmt.Sprintf("%s/%v", sname, order), func(t *testing.T) {
				fs := testFS()
				mustRun(t, 4, func(c *msg.Comm) {
					a, err := array.New[float64](c, "u", mustBlock(g, []int{2, 2}))
					if err != nil {
						panic(err)
					}
					a.Fill(coordVal)
					st, err := Write(a, x, fs, "out", Options{Order: order, PieceBytes: 256})
					if err != nil {
						panic(err)
					}
					if c.Rank() == 0 && st.StreamBytes != int64(x.Size()*8) {
						panic(fmt.Sprintf("StreamBytes = %d", st.StreamBytes))
					}
				})
				want := referenceStream(x, order)
				got := make([]byte, len(want))
				if err := fs.ReadAt(0, "out", got, 0); err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("stream bytes differ from linearization for %v in %v order", x, order)
				}
			})
		}
	}
}

func TestStreamIndependentOfDistributionAndWriters(t *testing.T) {
	// The defining property (§3.2): the output stream depends only on the
	// section, not on the distribution of the array or the number of
	// writers. Write the same section under several configurations and
	// demand byte-identical files.
	g := rangeset.Box([]int{0, 0, 0}, []int{7, 9, 5})
	x := rangeset.Box([]int{1, 2, 0}, []int{6, 8, 5})
	var ref []byte
	configs := []struct {
		tasks   int
		grid    []int
		writers int
		piece   int
	}{
		{1, []int{1, 1, 1}, 1, 1 << 20},
		{4, []int{2, 2, 1}, 4, 400},
		{4, []int{4, 1, 1}, 2, 977},
		{6, []int{1, 3, 2}, 6, 128},
		{6, []int{3, 2, 1}, 1, 4096}, // serial streaming
	}
	for i, cfg := range configs {
		fs := testFS()
		cfg := cfg
		mustRun(t, cfg.tasks, func(c *msg.Comm) {
			a, err := array.New[float64](c, "u", mustBlock(g, cfg.grid))
			if err != nil {
				panic(err)
			}
			a.Fill(coordVal)
			if _, err := Write(a, x, fs, "out", Options{Writers: cfg.writers, PieceBytes: cfg.piece}); err != nil {
				panic(err)
			}
		})
		sz, err := fs.Size("out")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, sz)
		if err := fs.ReadAt(0, "out", got, 0); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = got
			continue
		}
		if string(got) != string(ref) {
			t.Fatalf("config %d (%d tasks, grid %v, %d writers) produced different bytes",
				i, cfg.tasks, cfg.grid, cfg.writers)
		}
	}
}

func TestWriteThenReadDifferentTaskCount(t *testing.T) {
	// Checkpoint with t1 tasks, restart with t2: write the full array
	// from a 6-task run, read it back into a 4-task run with a different
	// grid, verify every element.
	g := rangeset.Box([]int{0, 0}, []int{11, 11})
	fs := testFS()
	mustRun(t, 6, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{3, 2}))
		if err != nil {
			panic(err)
		}
		a.Fill(coordVal)
		if _, err := Write(a, g, fs, "ck", Options{PieceBytes: 300}); err != nil {
			panic(err)
		}
	})
	mustRun(t, 4, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{2, 2}))
		if err != nil {
			panic(err)
		}
		if _, err := Read(a, g, fs, "ck", Options{PieceBytes: 511}); err != nil {
			panic(err)
		}
		a.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if a.At(cd) != coordVal(cd) {
				panic(fmt.Sprintf("task %d: element %v = %v after reconfigured read, want %v",
					c.Rank(), cd, a.At(cd), coordVal(cd)))
			}
		})
	})
}

func TestReadFillsShadowRegionsToo(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{11, 11})
	fs := testFS()
	mustRun(t, 2, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{2, 1}))
		if err != nil {
			panic(err)
		}
		a.Fill(coordVal)
		if _, err := Write(a, g, fs, "ck", Options{}); err != nil {
			panic(err)
		}
	})
	mustRun(t, 3, func(c *msg.Comm) {
		d, err := mustBlock(g, []int{3, 1}).WithShadow([]int{1, 0})
		if err != nil {
			panic(err)
		}
		a, err := array.New[float64](c, "u", d)
		if err != nil {
			panic(err)
		}
		if _, err := Read(a, g, fs, "ck", Options{}); err != nil {
			panic(err)
		}
		// Mapped includes shadow rows owned by neighbor tasks: all set.
		a.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if a.At(cd) != coordVal(cd) {
				panic(fmt.Sprintf("shadow element %v not restored", cd))
			}
		})
	})
}

func TestPartialSectionReadLeavesRestUntouched(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{7, 7})
	x := rangeset.Box([]int{0, 0}, []int{7, 3}) // left half only
	fs := testFS()
	mustRun(t, 2, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{2, 1}))
		if err != nil {
			panic(err)
		}
		a.Fill(coordVal)
		if _, err := Write(a, x, fs, "part", Options{}); err != nil {
			panic(err)
		}
	})
	mustRun(t, 2, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{1, 2}))
		if err != nil {
			panic(err)
		}
		sentinel := -7.0
		for i := range a.Local() {
			a.Local()[i] = sentinel
		}
		if _, err := Read(a, x, fs, "part", Options{}); err != nil {
			panic(err)
		}
		a.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			want := sentinel
			if cd[1] <= 3 {
				want = coordVal(cd)
			}
			if a.At(cd) != want {
				panic(fmt.Sprintf("element %v = %v, want %v", cd, a.At(cd), want))
			}
		})
	})
}

func TestEmptySectionIsNoOp(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{3, 3})
	fs := testFS()
	mustRun(t, 2, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{2, 1}))
		if err != nil {
			panic(err)
		}
		empty := g.EmptyLike()
		st, err := Write(a, empty, fs, "none", Options{})
		if err != nil {
			panic(err)
		}
		if st.StreamBytes != 0 || st.Pieces != 0 {
			panic(fmt.Sprintf("empty write stats = %+v", st))
		}
	})
	if fs.Exists("none") {
		t.Fatal("empty write created a file")
	}
}

func TestSectionValidation(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{3, 3})
	fs := testFS()
	mustRun(t, 1, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{1, 1}))
		if err != nil {
			panic(err)
		}
		if _, err := Write(a, rangeset.NewSlice(rangeset.Span(0, 3)), fs, "f", Options{}); err == nil {
			panic("rank mismatch accepted")
		}
		if _, err := Write(a, rangeset.Box([]int{0, 0}, []int{4, 3}), fs, "f", Options{}); err == nil {
			panic("out-of-bounds section accepted")
		}
	})
}

// TestSectionOutsideArraySpaceRefused: Write and Read refuse a section
// with an element outside the array's index space, with the same error,
// on regular and on index-list axes, and accept one inside it.
func TestSectionOutsideArraySpaceRefused(t *testing.T) {
	box := rangeset.Box([]int{0, 0}, []int{3, 3})
	list := rangeset.NewSlice(rangeset.List(0, 1, 3, 7, 8))
	irregular, err := dist.Irregular(list, []rangeset.Slice{
		rangeset.NewSlice(rangeset.List(0, 1)),
		rangeset.NewSlice(rangeset.List(3, 7, 8)),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		d       *dist.Distribution
		outside rangeset.Slice
		want    string
		inside  rangeset.Slice
	}{
		{mustBlock(box, []int{2, 1}), rangeset.Box([]int{0, 0}, []int{4, 3}),
			"stream: section (0:4, 0:3) exceeds array space (0:3, 0:3)", rangeset.Box([]int{1, 0}, []int{3, 2})},
		{mustBlock(box, []int{2, 1}), rangeset.NewSlice(rangeset.Span(0, 3), rangeset.List(0, 2, 5)),
			"stream: section (0:3, [0 2 5]) exceeds array space (0:3, 0:3)", rangeset.NewSlice(rangeset.Span(0, 3), rangeset.List(0, 2, 3))},
		{irregular, rangeset.NewSlice(rangeset.List(1, 3, 6)),
			"stream: section ([1 3 6]) exceeds array space ([0 1 3 7 8])", rangeset.NewSlice(rangeset.List(1, 7, 8))},
	}
	for i, c := range cases {
		fs := testFS()
		mustRun(t, 2, func(comm *msg.Comm) {
			a, err := array.New[float64](comm, "u", c.d)
			if err != nil {
				panic(err)
			}
			if _, err := Write(a, c.outside, fs, "out", Options{}); err == nil || err.Error() != c.want {
				panic(fmt.Sprintf("case %d: Write(%v) = %v, want %q", i, c.outside, err, c.want))
			}
			if _, err := Read(a, c.outside, fs, "out", Options{}); err == nil || err.Error() != c.want {
				panic(fmt.Sprintf("case %d: Read(%v) = %v, want %q", i, c.outside, err, c.want))
			}
			if _, err := Write(a, c.inside, fs, "in", Options{}); err != nil {
				panic(fmt.Sprintf("case %d: Write(%v): %v", i, c.inside, err))
			}
			if _, err := Read(a, c.inside, fs, "in", Options{}); err != nil {
				panic(fmt.Sprintf("case %d: Read(%v): %v", i, c.inside, err))
			}
		})
		if fs.Exists("out") {
			t.Fatalf("case %d: a refused Write created its file", i)
		}
	}
}

func TestNetBytesRecordedInTrace(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{15, 15})
	fs := testFS()
	tr := fs.StartTrace()
	mustRun(t, 4, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{2, 2}))
		if err != nil {
			panic(err)
		}
		a.Fill(coordVal)
		if _, err := Write(a, g, fs, "f", Options{PieceBytes: 256}); err != nil {
			panic(err)
		}
	})
	fs.StopTrace()
	var net, written int64
	for _, op := range tr.Ops {
		if op.Net {
			net += op.Bytes
		} else if op.Write {
			written += op.Bytes
		}
	}
	if written != int64(g.Size()*8) {
		t.Fatalf("trace writes = %d, want %d", written, g.Size()*8)
	}
	// With a 2x2 block layout streamed in column-major pieces, most
	// pieces cross task boundaries: redistribution traffic must appear.
	if net == 0 {
		t.Fatal("no redistribution traffic recorded")
	}
}

func TestSerialStreamingAppendsOnly(t *testing.T) {
	// With Writers=1 the piece offsets are strictly increasing and all
	// I/O is performed by task 0 — streamable through a sequential
	// channel (§3.2). Verify via the trace.
	g := rangeset.Box([]int{0, 0}, []int{15, 15})
	fs := testFS()
	tr := fs.StartTrace()
	mustRun(t, 4, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{4, 1}))
		if err != nil {
			panic(err)
		}
		a.Fill(coordVal)
		if _, err := Write(a, g, fs, "f", Options{Writers: 1, PieceBytes: 256}); err != nil {
			panic(err)
		}
	})
	fs.StopTrace()
	var lastEnd int64
	for _, op := range tr.Ops {
		if op.Net || !op.Write {
			continue
		}
		if op.Client != 0 {
			t.Fatalf("serial stream wrote from client %d", op.Client)
		}
		if op.Offset != lastEnd {
			t.Fatalf("serial stream seeked: offset %d after end %d", op.Offset, lastEnd)
		}
		lastEnd = op.Offset + op.Bytes
	}
	if lastEnd != int64(g.Size()*8) {
		t.Fatalf("serial stream wrote %d bytes", lastEnd)
	}
}

func TestStatsPieceTargetRespected(t *testing.T) {
	g := rangeset.NewSlice(rangeset.Span(0, 1023))
	fs := testFS()
	mustRun(t, 2, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{2}))
		if err != nil {
			panic(err)
		}
		a.Fill(coordVal)
		st, err := Write(a, g, fs, "f", Options{PieceBytes: 1024})
		if err != nil {
			panic(err)
		}
		// 8192 bytes at 1024-byte target: at least 8 pieces, and at least
		// as many pieces as writers.
		if c.Rank() == 0 && st.Pieces < 8 {
			panic(fmt.Sprintf("pieces = %d", st.Pieces))
		}
	})
}
