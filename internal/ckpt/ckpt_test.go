package ckpt

import (
	"fmt"
	"strings"
	"testing"

	"drms/internal/array"
	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/stream"
)

func testFS() *pfs.System {
	return pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
}

func coordVal(c []int) float64 {
	v := 0.0
	for i, x := range c {
		v = v*100 + float64(x) + float64(i)
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

// buildApp makes a miniature application state: two float64 arrays and an
// int32 array plus replicated variables.
func buildApp(c *msg.Comm, grid []int) (*seg.Segment, []ArrayRef, *array.Array[float64], *array.Array[int32]) {
	g := rangeset.Box([]int{0, 0}, []int{11, 11})
	u, err := array.New[float64](c, "u", mustBlock(g, grid))
	if err != nil {
		panic(err)
	}
	ids, err := array.New[int32](c, "ids", mustBlock(g, grid))
	if err != nil {
		panic(err)
	}
	sg := seg.New()
	return sg, []ArrayRef{Ref(u), Ref(ids)}, u, ids
}

func TestDRMSCheckpointRestartSameTasks(t *testing.T) {
	fs := testFS()
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 2})
		iter := 37
		sg.Register("iter", &iter)
		sg.Ctx = seg.Context{SOP: "loop", Step: 37}
		u.Fill(coordVal)
		ids.Fill(func(cd []int) int32 { return int32(cd[0]*100 + cd[1]) })
		if _, err := WriteDRMS(fs, "ck", c, sg, refs, stream.Options{}); err != nil {
			panic(err)
		}
	})
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 2})
		var iter int
		sg.Register("iter", &iter)
		m, _, err := ReadDRMSOpts(fs, "ck", c, sg, refs, stream.Options{}, RestoreOptions{})
		if err != nil {
			panic(err)
		}
		if m.Tasks != 4 || iter != 37 || sg.Ctx.Step != 37 || sg.Ctx.SOP != "loop" {
			panic(fmt.Sprintf("restored meta/vars wrong: tasks=%d iter=%d ctx=%+v", m.Tasks, iter, sg.Ctx))
		}
		u.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if u.At(cd) != coordVal(cd) {
				panic(fmt.Sprintf("u%v = %v", cd, u.At(cd)))
			}
		})
		ids.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if ids.At(cd) != int32(cd[0]*100+cd[1]) {
				panic(fmt.Sprintf("ids%v = %v", cd, ids.At(cd)))
			}
		})
	})
}

func TestDRMSReconfiguredRestart(t *testing.T) {
	// The headline capability: checkpoint with t1=6 tasks, restart with
	// t2 ∈ {2, 3, 4, 8, 12} tasks and different grids; all state must be
	// identical.
	fs := testFS()
	mustRun(t, 6, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{3, 2})
		iter := 50
		sg.Register("iter", &iter)
		u.Fill(coordVal)
		ids.Fill(func(cd []int) int32 { return int32(cd[0] - cd[1]) })
		if _, err := WriteDRMS(fs, "ck", c, sg, refs, stream.Options{PieceBytes: 300}); err != nil {
			panic(err)
		}
	})
	for _, cfg := range []struct {
		tasks int
		grid  []int
	}{
		{2, []int{2, 1}}, {3, []int{1, 3}}, {4, []int{2, 2}}, {8, []int{4, 2}}, {12, []int{3, 4}},
	} {
		cfg := cfg
		mustRun(t, cfg.tasks, func(c *msg.Comm) {
			sg, refs, u, ids := buildApp(c, cfg.grid)
			var iter int
			sg.Register("iter", &iter)
			m, _, err := ReadDRMSOpts(fs, "ck", c, sg, refs, stream.Options{PieceBytes: 128}, RestoreOptions{})
			if err != nil {
				panic(err)
			}
			delta := c.Size() - m.Tasks
			if delta != cfg.tasks-6 {
				panic(fmt.Sprintf("delta = %d", delta))
			}
			if iter != 50 {
				panic(fmt.Sprintf("iter = %d", iter))
			}
			u.Mapped().Each(rangeset.ColMajor, func(cd []int) {
				if u.At(cd) != coordVal(cd) {
					panic(fmt.Sprintf("%d tasks: u%v = %v", cfg.tasks, cd, u.At(cd)))
				}
			})
			ids.Mapped().Each(rangeset.ColMajor, func(cd []int) {
				if ids.At(cd) != int32(cd[0]-cd[1]) {
					panic(fmt.Sprintf("%d tasks: ids%v = %v", cfg.tasks, cd, ids.At(cd)))
				}
			})
		})
	}
}

func TestDRMSStateSizeIndependentOfTasks(t *testing.T) {
	// Table 3's DRMS property: the saved state does not grow with the
	// task count (segment is one task's; arrays are global).
	sizes := map[int]int64{}
	for _, tasks := range []int{2, 4, 6} {
		fs := testFS()
		tasks := tasks
		grid := map[int][]int{2: {2, 1}, 4: {2, 2}, 6: {3, 2}}[tasks]
		mustRun(t, tasks, func(c *msg.Comm) {
			sg, refs, u, _ := buildApp(c, grid)
			sg.Model = seg.SizeModel{SystemBytes: 1000, PrivateBytes: 500}
			u.Fill(coordVal)
			if _, err := WriteDRMS(fs, "ck", c, sg, refs, stream.Options{}); err != nil {
				panic(err)
			}
		})
		// Exclude the metadata file: its piece table grows by ~20 bytes
		// per streamed piece (and the piece count tracks the writer
		// count), which is measurement noise against the state itself.
		var n int64
		for _, f := range fs.List("ck.") {
			if f == "ck.meta" {
				continue
			}
			sz, err := fs.Size(f)
			if err != nil {
				t.Fatal(err)
			}
			n += sz
		}
		sizes[tasks] = n
		meta, _ := fs.Size("ck.meta")
		if meta > 4096 {
			t.Fatalf("metadata unexpectedly large: %d bytes", meta)
		}
	}
	if sizes[2] != sizes[4] || sizes[4] != sizes[6] {
		t.Fatalf("DRMS state size varies with tasks: %v", sizes)
	}
}

func TestSPMDStateSizeGrowsLinearly(t *testing.T) {
	sizes := map[int]int64{}
	for _, tasks := range []int{2, 4} {
		fs := testFS()
		tasks := tasks
		grid := map[int][]int{2: {2, 1}, 4: {2, 2}}[tasks]
		mustRun(t, tasks, func(c *msg.Comm) {
			sg, refs, u, _ := buildApp(c, grid)
			// Fixed per-task overhead dominates, as in Fortran codes with
			// compile-time storage.
			sg.Model = seg.SizeModel{SystemBytes: 40000, PrivateBytes: 10000}
			u.Fill(coordVal)
			if _, err := WriteSPMD(fs, "ck", c, sg, refs, stream.Options{}); err != nil {
				panic(err)
			}
		})
		sizes[tasks] = StateBytes(fs, "ck")
	}
	if sizes[4] < sizes[2]*3/2 {
		t.Fatalf("SPMD state did not grow with tasks: %v", sizes)
	}
}

func TestSPMDRoundTrip(t *testing.T) {
	fs := testFS()
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 2})
		iter := 9
		sg.Register("iter", &iter)
		u.Fill(coordVal)
		ids.Fill(func(cd []int) int32 { return int32(cd[1]) })
		if _, err := WriteSPMD(fs, "ck", c, sg, refs, stream.Options{}); err != nil {
			panic(err)
		}
	})
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 2})
		var iter int
		sg.Register("iter", &iter)
		m, _, err := ReadSPMD(fs, "ck", c, sg, refs, stream.Options{})
		if err != nil {
			panic(err)
		}
		if m.Tasks != 4 || iter != 9 {
			panic(fmt.Sprintf("tasks=%d iter=%d", m.Tasks, iter))
		}
		u.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if u.At(cd) != coordVal(cd) {
				panic(fmt.Sprintf("u%v = %v", cd, u.At(cd)))
			}
		})
		ids.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if ids.At(cd) != int32(cd[1]) {
				panic("ids corrupted")
			}
		})
	})
}

func TestSPMDRejectsReconfiguredRestart(t *testing.T) {
	fs := testFS()
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, u, _ := buildApp(c, []int{2, 2})
		u.Fill(coordVal)
		if _, err := WriteSPMD(fs, "ck", c, sg, refs, stream.Options{}); err != nil {
			panic(err)
		}
	})
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, _, _ := buildApp(c, []int{2, 1})
		_, _, err := ReadSPMD(fs, "ck", c, sg, refs, stream.Options{})
		if err == nil || !strings.Contains(err.Error(), "not reconfigurable") {
			panic(fmt.Sprintf("err = %v", err))
		}
	})
}

// TestLocalSectionInPlace: an SPMD checkpoint and a park snapshot encode
// a local section into a buffer they own, a restore decodes it straight
// into the array's storage, and a length is arithmetic — none of it
// allocates.
func TestLocalSectionInPlace(t *testing.T) {
	mustRun(t, 1, func(c *msg.Comm) {
		_, refs, u, _ := buildApp(c, []int{1, 1})
		u.Fill(coordVal)
		a := refs[0]
		buf := a.AppendLocalBytes(nil)
		if len(buf) != a.MappedElems()*a.ElemSize() {
			panic(fmt.Sprintf("encoded %d bytes of %d elements", len(buf), a.MappedElems()))
		}
		if n := testing.AllocsPerRun(10, func() { buf = a.AppendLocalBytes(buf[:0]) }); n != 0 {
			panic(fmt.Sprintf("AppendLocalBytes into a large enough buffer: %v allocations", n))
		}
		u.Fill(func([]int) float64 { return 0 })
		if n := testing.AllocsPerRun(10, func() {
			if err := a.SetLocalBytes(buf); err != nil {
				panic(err)
			}
		}); n != 0 {
			panic(fmt.Sprintf("SetLocalBytes: %v allocations", n))
		}
		u.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if u.At(cd) != coordVal(cd) {
				panic(fmt.Sprintf("u%v = %v after SetLocalBytes, want %v", cd, u.At(cd), coordVal(cd)))
			}
		})
	})
}

func TestDRMSValidatesArrayTable(t *testing.T) {
	fs := testFS()
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, u, _ := buildApp(c, []int{2, 1})
		u.Fill(coordVal)
		if _, err := WriteDRMS(fs, "ck", c, sg, refs, stream.Options{}); err != nil {
			panic(err)
		}
	})
	mustRun(t, 2, func(c *msg.Comm) {
		g := rangeset.Box([]int{0, 0}, []int{11, 11})
		sg := seg.New()
		u, _ := array.New[float64](c, "u", mustBlock(g, []int{2, 1}))
		ids, _ := array.New[int32](c, "ids", mustBlock(g, []int{2, 1}))

		// Missing handle.
		if _, _, err := ReadDRMSOpts(fs, "ck", c, sg, []ArrayRef{Ref(u)}, stream.Options{}, RestoreOptions{}); err == nil {
			panic("missing array handle accepted")
		}
		// Wrong element kind.
		wrongKind, _ := array.New[float32](c, "ids", mustBlock(g, []int{2, 1}))
		if _, _, err := ReadDRMSOpts(fs, "ck", c, sg, []ArrayRef{Ref(u), Ref(wrongKind)}, stream.Options{}, RestoreOptions{}); err == nil {
			panic("wrong element kind accepted")
		}
		// Wrong global shape.
		small := rangeset.Box([]int{0, 0}, []int{7, 7})
		wrongShape, _ := array.New[float64](c, "u", mustBlock(small, []int{2, 1}))
		if _, _, err := ReadDRMSOpts(fs, "ck", c, sg, []ArrayRef{Ref(wrongShape), Ref(ids)}, stream.Options{}, RestoreOptions{}); err == nil {
			panic("wrong global shape accepted")
		}
		// Extra handle not in checkpoint.
		extra, _ := array.New[float64](c, "extra", mustBlock(g, []int{2, 1}))
		if _, _, err := ReadDRMSOpts(fs, "ck", c, sg, []ArrayRef{Ref(u), Ref(ids), Ref(extra)}, stream.Options{}, RestoreOptions{}); err == nil {
			panic("extra array handle accepted")
		}
	})
}

func TestMultiplePrefixesCoexist(t *testing.T) {
	fs := testFS()
	for _, step := range []int{10, 20} {
		step := step
		mustRun(t, 2, func(c *msg.Comm) {
			sg, refs, u, ids := buildApp(c, []int{2, 1})
			iter := step
			sg.Register("iter", &iter)
			u.Fill(func(cd []int) float64 { return coordVal(cd) + float64(step) })
			ids.Fill(func(cd []int) int32 { return int32(step) })
			prefix := fmt.Sprintf("ck%d", step)
			if _, err := WriteDRMS(fs, prefix, c, sg, refs, stream.Options{}); err != nil {
				panic(err)
			}
		})
	}
	// Restart from the older state: multiple concurrent checkpoints (§3).
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, u, _ := buildApp(c, []int{2, 1})
		var iter int
		sg.Register("iter", &iter)
		if _, _, err := ReadDRMSOpts(fs, "ck10", c, sg, refs, stream.Options{}, RestoreOptions{}); err != nil {
			panic(err)
		}
		if iter != 10 {
			panic(fmt.Sprintf("iter = %d", iter))
		}
		first := u.Mapped().Coord(0, rangeset.ColMajor)
		if u.At(first) != coordVal(first)+10 {
			panic("ck10 state wrong")
		}
	})
}

func TestSegmentFilePaddedToModelSize(t *testing.T) {
	fs := testFS()
	const modelTotal = 3 << 20
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, u, _ := buildApp(c, []int{2, 1})
		sg.Model = seg.SizeModel{LocalSectionBytes: 1 << 20, SystemBytes: 1 << 20, PrivateBytes: 1 << 20}
		u.Fill(coordVal)
		if _, err := WriteDRMS(fs, "ck", c, sg, refs, stream.Options{}); err != nil {
			panic(err)
		}
	})
	sz, err := fs.Size("ck.seg")
	if err != nil {
		t.Fatal(err)
	}
	if sz != modelTotal {
		t.Fatalf("segment file = %d bytes, want modeled %d", sz, modelTotal)
	}
	// Sparse storage means the padding is free.
	if fs.StoredBytes() > 1<<20 {
		t.Fatalf("padding materialized %d bytes", fs.StoredBytes())
	}
	// And the padded file restores fine.
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, _, _ := buildApp(c, []int{2, 1})
		if _, _, err := ReadDRMSOpts(fs, "ck", c, sg, refs, stream.Options{}, RestoreOptions{}); err != nil {
			panic(err)
		}
	})
}

func TestTracePhasesSeparateSegmentAndArrays(t *testing.T) {
	fs := testFS()
	tr := fs.StartTrace()
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 2})
		u.Fill(coordVal)
		ids.Fill(func(cd []int) int32 { return 1 })
		if _, err := WriteDRMS(fs, "ck", c, sg, refs, stream.Options{PieceBytes: 300}); err != nil {
			panic(err)
		}
	})
	fs.StopTrace()
	var names []string
	names = append(names, tr.Phases...)
	joined := strings.Join(names, ",")
	for _, want := range []string{"segment", "arrays:u", "arrays:ids", "meta"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("phases %v missing %q", names, want)
		}
	}
	// Segment phase ops all come from task 0; array phases include writes
	// from several clients.
	for pi, pname := range tr.Phases {
		ops := tr.PhaseOps(pi)
		if pname == "segment" {
			for _, op := range ops {
				if op.Client != 0 {
					t.Fatalf("segment phase op from client %d", op.Client)
				}
			}
		}
		if pname == "arrays:u" {
			writers := map[int]bool{}
			for _, op := range ops {
				if op.Write && !op.Net {
					writers[op.Client] = true
				}
			}
			if len(writers) < 2 {
				t.Fatalf("array phase used %d writers", len(writers))
			}
		}
	}
}

func TestExistsRemove(t *testing.T) {
	fs := testFS()
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, u, _ := buildApp(c, []int{2, 1})
		u.Fill(coordVal)
		if _, err := WriteDRMS(fs, "ck", c, sg, refs, stream.Options{}); err != nil {
			panic(err)
		}
	})
	if !Exists(fs, "ck") {
		t.Fatal("checkpoint not found")
	}
	Remove(fs, "ck")
	if Exists(fs, "ck") || StateBytes(fs, "ck") != 0 {
		t.Fatal("checkpoint survived Remove")
	}
}

func TestReadMetaMissing(t *testing.T) {
	fs := testFS()
	if _, err := ReadMeta(fs, "nope", 0); err == nil {
		t.Fatal("missing checkpoint metadata read succeeded")
	}
}

func TestStatsAccounting(t *testing.T) {
	fs := testFS()
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 1})
		u.Fill(coordVal)
		ids.Fill(func(cd []int) int32 { return 2 })
		st, err := WriteDRMS(fs, "ck", c, sg, refs, stream.Options{})
		if err != nil {
			panic(err)
		}
		// 12x12 grid: u is 1152 bytes * ... u: 144*8, ids: 144*4.
		if st.ArrayBytes != 144*8+144*4 {
			panic(fmt.Sprintf("ArrayBytes = %d", st.ArrayBytes))
		}
		if c.Rank() == 0 && st.SegmentBytes == 0 {
			panic("task 0 reported no segment bytes")
		}
		if c.Rank() != 0 && st.SegmentBytes != 0 {
			panic("non-selected task reported segment bytes")
		}
		if st.Total() != st.SegmentBytes+st.ArrayBytes {
			panic("Total mismatch")
		}
	})
}

func TestMigrationAcrossSystems(t *testing.T) {
	// §1: "reconfigurable checkpointed states can be migrated from one
	// parallel system to another even if they do not have the same number
	// of processors." Checkpoint on system A, copy the files byte-for-byte
	// onto system B with a completely different file-system geometry, and
	// restart there with a different task count.
	sysA := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 2})
		iter := 11
		sg.Register("iter", &iter)
		u.Fill(coordVal)
		ids.Fill(func(cd []int) int32 { return int32(cd[0] + cd[1]) })
		if _, err := WriteDRMS(sysA, "ck", c, sg, refs, stream.Options{PieceBytes: 300}); err != nil {
			panic(err)
		}
	})

	// "Migrate": byte-copy every checkpoint file to the other machine.
	sysB := pfs.NewSystem(pfs.Config{Servers: 16, StripeUnit: 64 << 10})
	for _, name := range sysA.List("ck.") {
		sz, err := sysA.Size(name)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, sz)
		if err := sysA.ReadAt(0, name, buf, 0); err != nil {
			t.Fatal(err)
		}
		if err := sysB.WriteAt(0, name, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := Verify(sysB, "ck", 0); err != nil {
		t.Fatalf("migrated state fails verification: %v", err)
	}
	mustRun(t, 6, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{3, 2})
		var iter int
		sg.Register("iter", &iter)
		if _, _, err := ReadDRMSOpts(sysB, "ck", c, sg, refs, stream.Options{}, RestoreOptions{}); err != nil {
			panic(err)
		}
		if iter != 11 {
			panic(fmt.Sprintf("iter = %d", iter))
		}
		u.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if u.At(cd) != coordVal(cd) {
				panic(fmt.Sprintf("migrated u%v = %v", cd, u.At(cd)))
			}
		})
		ids.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if ids.At(cd) != int32(cd[0]+cd[1]) {
				panic("migrated ids corrupted")
			}
		})
	})
}

func TestRestartUnderGenBlockAndIrregular(t *testing.T) {
	// §7's generality claim: the checkpointed state restores under
	// distributions far from the writer's — load-balanced gen-block runs
	// and fully irregular index-list sections.
	fs := testFS()
	g := rangeset.Box([]int{0, 0}, []int{11, 11})
	mustRun(t, 4, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 2})
		u.Fill(coordVal)
		ids.Fill(func(cd []int) int32 { return int32(cd[0] * cd[1]) })
		if _, err := WriteDRMS(fs, "ck", c, sg, refs, stream.Options{}); err != nil {
			panic(err)
		}
	})
	// Gen-block restart (uneven 3-way row split x 1).
	mustRun(t, 3, func(c *msg.Comm) {
		gb, err := dist.GenBlock(g, [][]int{{6, 2, 4}, {12}})
		if err != nil {
			panic(err)
		}
		sg := seg.New()
		u, _ := array.New[float64](c, "u", gb)
		ids, _ := array.New[int32](c, "ids", gb)
		if _, _, err := ReadDRMSOpts(fs, "ck", c, sg, []ArrayRef{Ref(u), Ref(ids)}, stream.Options{}, RestoreOptions{}); err != nil {
			panic(err)
		}
		u.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if u.At(cd) != coordVal(cd) {
				panic("gen-block restore corrupted u")
			}
		})
	})
	// Fully irregular restart: interleaved row ownership.
	mustRun(t, 2, func(c *msg.Comm) {
		a0 := rangeset.NewSlice(rangeset.List(0, 2, 3, 7, 8, 11), rangeset.Span(0, 11))
		a1 := rangeset.NewSlice(rangeset.List(1, 4, 5, 6, 9, 10), rangeset.Span(0, 11))
		ir, err := dist.Irregular(g, []rangeset.Slice{a0, a1}, nil)
		if err != nil {
			panic(err)
		}
		sg := seg.New()
		u, _ := array.New[float64](c, "u", ir)
		ids, _ := array.New[int32](c, "ids", ir)
		if _, _, err := ReadDRMSOpts(fs, "ck", c, sg, []ArrayRef{Ref(u), Ref(ids)}, stream.Options{}, RestoreOptions{}); err != nil {
			panic(err)
		}
		ids.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if ids.At(cd) != int32(cd[0]*cd[1]) {
				panic("irregular restore corrupted ids")
			}
		})
	})
}

func TestRowMajorCheckpointRoundTrip(t *testing.T) {
	// The C-style ordering end to end: checkpoint and restart with
	// row-major streams (§3.2 supports both conventions).
	fs := testFS()
	opts := stream.Options{Order: rangeset.RowMajor}
	mustRun(t, 3, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{3, 1})
		u.Fill(coordVal)
		ids.Fill(func(cd []int) int32 { return int32(cd[1] - cd[0]) })
		if _, err := WriteDRMS(fs, "rm", c, sg, refs, opts); err != nil {
			panic(err)
		}
	})
	if err := Verify(fs, "rm", 0); err != nil {
		t.Fatal(err)
	}
	mustRun(t, 5, func(c *msg.Comm) {
		g := rangeset.Box([]int{0, 0}, []int{11, 11})
		sg := seg.New()
		u, _ := array.New[float64](c, "u", mustBlock(g, []int{5, 1}))
		ids, _ := array.New[int32](c, "ids", mustBlock(g, []int{5, 1}))
		if _, _, err := ReadDRMSOpts(fs, "rm", c, sg, []ArrayRef{Ref(u), Ref(ids)}, opts, RestoreOptions{}); err != nil {
			panic(err)
		}
		u.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if u.At(cd) != coordVal(cd) {
				panic("row-major roundtrip corrupted u")
			}
		})
	})
}

func TestRotationLifecycle(t *testing.T) {
	fs := testFS()
	rot := Rotation{Base: "hist", Keep: 2}
	if _, _, ok := rot.Latest(fs); ok {
		t.Fatal("latest on empty history")
	}
	// Take four generations of checkpoints.
	for gen := 0; gen < 4; gen++ {
		prefix := rot.NextPrefix(fs)
		want := fmt.Sprintf("hist.g%d", gen)
		if prefix != want {
			t.Fatalf("generation %d prefix = %q, want %q", gen, prefix, want)
		}
		gen := gen
		mustRun(t, 2, func(c *msg.Comm) {
			sg, refs, u, ids := buildApp(c, []int{2, 1})
			iter := gen * 10
			sg.Register("iter", &iter)
			u.Fill(coordVal)
			ids.Fill(func(cd []int) int32 { return int32(gen) })
			if _, err := WriteDRMS(fs, prefix, c, sg, refs, stream.Options{}); err != nil {
				panic(err)
			}
		})
		rot.Prune(fs)
	}
	// Only the last two generations survive.
	gens := rot.Generations(fs)
	if len(gens) != 2 || gens[0] != "hist.g2" || gens[1] != "hist.g3" {
		t.Fatalf("generations = %v", gens)
	}
	g, prefix, ok := rot.Latest(fs)
	if !ok || g != 3 || prefix != "hist.g3" {
		t.Fatalf("latest = %d %q %v", g, prefix, ok)
	}
	// The retained older generation restores (multiple concurrent states).
	mustRun(t, 3, func(c *msg.Comm) {
		g := rangeset.Box([]int{0, 0}, []int{11, 11})
		sg := seg.New()
		var iter int
		sg.Register("iter", &iter)
		u, _ := array.New[float64](c, "u", mustBlock(g, []int{3, 1}))
		ids, _ := array.New[int32](c, "ids", mustBlock(g, []int{3, 1}))
		if _, _, err := ReadDRMSOpts(fs, "hist.g2", c, sg, []ArrayRef{Ref(u), Ref(ids)}, stream.Options{}, RestoreOptions{}); err != nil {
			panic(err)
		}
		if iter != 20 {
			panic(fmt.Sprintf("iter = %d", iter))
		}
	})
	// Pruning never deletes the newest generation even with Keep 0/1.
	rot.Keep = 0
	rot.Prune(fs)
	if _, _, ok := rot.Latest(fs); !ok {
		t.Fatal("prune removed the newest generation")
	}
}
