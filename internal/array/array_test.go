package array

import (
	"fmt"
	"math"
	"testing"

	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// coordVal gives every global coordinate a distinct value, so transfers
// that misplace even one element are caught.
func coordVal(c []int) float64 {
	v := 0.0
	for i, x := range c {
		v = v*1000 + float64(x) + float64(i)*0.25
	}
	return v
}

// mustRun executes the SPMD body, converting assertion panics inside it
// (and any task error) into test failures.
func mustRun(t testing.TB, n int, f func(c *msg.Comm)) {
	t.Helper()
	if err := msg.Run(n, func(c *msg.Comm) error { f(c); return nil }); err != nil {
		t.Fatal(err)
	}
}

func mustBlock(t testing.TB, g rangeset.Slice, grid []int) *dist.Distribution {
	t.Helper()
	d, err := dist.Block(g, grid)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFillAtSet(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{7, 7})
	mustRun(t, 4, func(c *msg.Comm) {
		d := mustBlock(t, g, []int{2, 2})
		a, err := New[float64](c, "u", d)
		if err != nil {
			panic(err)
		}
		a.Fill(coordVal)
		a.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if a.At(cd) != coordVal(cd) {
				panic(fmt.Sprintf("At(%v) = %v", cd, a.At(cd)))
			}
		})
		first := a.Mapped().Coord(0, rangeset.ColMajor)
		a.Set(first, -1)
		if a.At(first) != -1 {
			panic("Set lost")
		}
	})
}

func TestNewRejectsWrongTaskCount(t *testing.T) {
	g := rangeset.Box([]int{0}, []int{9})
	mustRun(t, 2, func(c *msg.Comm) {
		d := mustBlock(t, g, []int{4}) // 4 tasks but comm has 2
		if _, err := New[float64](c, "u", d); err == nil {
			panic("mismatched task count accepted")
		}
	})
}

func TestAssignBlockToBlockDifferentGrids(t *testing.T) {
	g := rangeset.Box([]int{0, 0, 0}, []int{5, 7, 3})
	mustRun(t, 6, func(c *msg.Comm) {
		src, err := New[float64](c, "a", mustBlock(t, g, []int{3, 2, 1}))
		if err != nil {
			panic(err)
		}
		dst, err := New[float64](c, "b", mustBlock(t, g, []int{1, 2, 3}))
		if err != nil {
			panic(err)
		}
		src.Fill(coordVal)
		if err := Assign(dst, src); err != nil {
			panic(err)
		}
		dst.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if dst.At(cd) != coordVal(cd) {
				panic(fmt.Sprintf("task %d: b%v = %v, want %v", c.Rank(), cd, dst.At(cd), coordVal(cd)))
			}
		})
	})
}

func TestAssignToBlockCyclic(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{15, 15})
	mustRun(t, 4, func(c *msg.Comm) {
		src, err := New[float64](c, "a", mustBlock(t, g, []int{2, 2}))
		if err != nil {
			panic(err)
		}
		bc, err := dist.BlockCyclic(g, []int{4, 1}, []int{3, 1})
		if err != nil {
			panic(err)
		}
		dst, err := New[float64](c, "b", bc)
		if err != nil {
			panic(err)
		}
		src.Fill(coordVal)
		if err := Assign(dst, src); err != nil {
			panic(err)
		}
		dst.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if dst.At(cd) != coordVal(cd) {
				panic(fmt.Sprintf("b%v = %v, want %v", cd, dst.At(cd), coordVal(cd)))
			}
		})
	})
}

func TestAssignUpdatesShadowCopiesConsistently(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{11, 11})
	mustRun(t, 3, func(c *msg.Comm) {
		base := mustBlock(t, g, []int{3, 1})
		shadowed, err := base.WithShadow([]int{1, 0})
		if err != nil {
			panic(err)
		}
		src, err := New[float64](c, "a", base)
		if err != nil {
			panic(err)
		}
		dst, err := New[float64](c, "b", shadowed)
		if err != nil {
			panic(err)
		}
		src.Fill(coordVal)
		if err := Assign(dst, src); err != nil {
			panic(err)
		}
		// Every mapped element — including shadow rows owned by the
		// neighbor — must hold the owner's value.
		dst.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if dst.At(cd) != coordVal(cd) {
				panic(fmt.Sprintf("task %d shadow copy %v = %v, want %v",
					c.Rank(), cd, dst.At(cd), coordVal(cd)))
			}
		})
	})
}

func TestExchangeShadows(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{11, 11})
	mustRun(t, 3, func(c *msg.Comm) {
		d, err := mustBlock(t, g, []int{3, 1}).WithShadow([]int{1, 0})
		if err != nil {
			panic(err)
		}
		a, err := New[float64](c, "u", d)
		if err != nil {
			panic(err)
		}
		// Each task writes ONLY its assigned section; shadows are stale zeros.
		a.Assigned().Each(rangeset.ColMajor, func(cd []int) {
			a.Set(cd, coordVal(cd))
		})
		if err := a.ExchangeShadows(); err != nil {
			panic(err)
		}
		a.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if a.At(cd) != coordVal(cd) {
				panic(fmt.Sprintf("task %d: halo %v = %v after exchange, want %v",
					c.Rank(), cd, a.At(cd), coordVal(cd)))
			}
		})
	})
}

func TestAssignLeavesUndefinedUntouched(t *testing.T) {
	g := rangeset.NewSlice(rangeset.Span(0, 9))
	mustRun(t, 2, func(c *msg.Comm) {
		// Source assigns only elements 0-4; 5-9 are undefined.
		partial, err := dist.Irregular(g, []rangeset.Slice{
			rangeset.NewSlice(rangeset.Span(0, 4)),
			rangeset.NewSlice(rangeset.Range{}),
		}, nil)
		if err != nil {
			panic(err)
		}
		src, err := New[float64](c, "a", partial)
		if err != nil {
			panic(err)
		}
		dst, err := New[float64](c, "b", mustBlock(t, g, []int{2}))
		if err != nil {
			panic(err)
		}
		src.Fill(coordVal)
		sentinel := -99.0
		for i := range dst.Local() {
			dst.Local()[i] = sentinel
		}
		if err := Assign(dst, src); err != nil {
			panic(err)
		}
		dst.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			want := sentinel
			if cd[0] <= 4 {
				want = coordVal(cd)
			}
			if dst.At(cd) != want {
				panic(fmt.Sprintf("b[%v] = %v, want %v", cd, dst.At(cd), want))
			}
		})
	})
}

func TestAssignShapeMismatchRejected(t *testing.T) {
	mustRun(t, 2, func(c *msg.Comm) {
		g1 := rangeset.NewSlice(rangeset.Span(0, 9))
		g2 := rangeset.NewSlice(rangeset.Span(0, 8))
		a, _ := New[float64](c, "a", mustBlock(t, g1, []int{2}))
		b, _ := New[float64](c, "b", mustBlock(t, g2, []int{2}))
		if err := Assign(b, a); err == nil {
			panic("shape mismatch accepted")
		}
		// All tasks took the error path; no exchange happened — still collective-safe.
	})
}

func TestGatherGlobalOrder(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{3, 4})
	for _, order := range []rangeset.Order{rangeset.ColMajor, rangeset.RowMajor} {
		order := order
		mustRun(t, 4, func(c *msg.Comm) {
			a, err := New[float64](c, "u", mustBlock(t, g, []int{2, 2}))
			if err != nil {
				panic(err)
			}
			a.Fill(coordVal)
			full, err := a.Gather(0, order)
			if err != nil {
				panic(err)
			}
			if c.Rank() != 0 {
				if full != nil {
					panic("non-root gather not nil")
				}
				return
			}
			if len(full) != 20 {
				panic(fmt.Sprintf("gathered %d elements", len(full)))
			}
			for off, v := range full {
				cd := g.Coord(off, order)
				if v != coordVal(cd) {
					panic(fmt.Sprintf("%v slot %d (%v) = %v, want %v", order, off, cd, v, coordVal(cd)))
				}
			}
		})
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{7, 7})
	mustRun(t, 2, func(c *msg.Comm) {
		a, err := New[float64](c, "u", mustBlock(t, g, []int{2, 1}))
		if err != nil {
			panic(err)
		}
		a.Fill(coordVal)
		sub := a.Assigned().Intersect(rangeset.NewSlice(rangeset.Reg(0, 7, 2), rangeset.List(1, 3, 6)))
		if sub.Empty() {
			return
		}
		buf, err := a.PackSection(sub, rangeset.ColMajor)
		if err != nil {
			panic(err)
		}
		b, err := New[float64](c, "v", a.Dist())
		if err != nil {
			panic(err)
		}
		if err := b.UnpackSection(sub, rangeset.ColMajor, buf); err != nil {
			panic(err)
		}
		sub.Each(rangeset.ColMajor, func(cd []int) {
			if b.At(cd) != coordVal(cd) {
				panic(fmt.Sprintf("roundtrip lost %v", cd))
			}
		})
	})
}

func TestIntTypesRoundTrip(t *testing.T) {
	g := rangeset.NewSlice(rangeset.Span(0, 99))
	mustRun(t, 2, func(c *msg.Comm) {
		a, err := New[int32](c, "ids", mustBlock(t, g, []int{2}))
		if err != nil {
			panic(err)
		}
		a.Fill(func(cd []int) int32 { return int32(cd[0]*3 - 50) })
		b, err := a.Redistribute(mustBlock(t, g, []int{2}))
		if err != nil {
			panic(err)
		}
		b.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if b.At(cd) != int32(cd[0]*3-50) {
				panic("int32 redistribute corrupted values")
			}
		})
	})
}

func TestCodecAllTypes(t *testing.T) {
	if got := ElemSize[float64](); got != 8 {
		t.Fatalf("float64 size %d", got)
	}
	if got := ElemSize[float32](); got != 4 {
		t.Fatalf("float32 size %d", got)
	}
	if got := ElemSize[uint8](); got != 1 {
		t.Fatalf("uint8 size %d", got)
	}
	f := []float64{0, -1.5, math.Pi, math.Inf(1)}
	got := DecodeElems[float64](EncodeElems(f))
	for i := range f {
		if got[i] != f[i] {
			t.Fatalf("float64 codec: %v -> %v", f[i], got[i])
		}
	}
	i32 := []int32{0, -1, 1 << 30}
	gi := DecodeElems[int32](EncodeElems(i32))
	for i := range i32 {
		if gi[i] != i32[i] {
			t.Fatalf("int32 codec: %v -> %v", i32[i], gi[i])
		}
	}
	u := []uint8{0, 255, 7}
	gu := DecodeElems[uint8](EncodeElems(u))
	for i := range u {
		if gu[i] != u[i] {
			t.Fatalf("uint8 codec: %v -> %v", u[i], gu[i])
		}
	}
	i64 := []int64{-1 << 60, 42}
	g64 := DecodeElems[int64](EncodeElems(i64))
	for i := range i64 {
		if g64[i] != i64[i] {
			t.Fatalf("int64 codec: %v -> %v", i64[i], g64[i])
		}
	}
	f32 := []float32{-2.5, 1e30}
	g32 := DecodeElems[float32](EncodeElems(f32))
	for i := range f32 {
		if g32[i] != f32[i] {
			t.Fatalf("float32 codec: %v -> %v", f32[i], g32[i])
		}
	}
	if ElemKind[float64]() != "float64" || ElemKind[uint8]() != "uint8" ||
		ElemKind[int64]() != "int64" || ElemKind[int32]() != "int32" ||
		ElemKind[float32]() != "float32" {
		t.Fatal("ElemKind names wrong")
	}
}

func TestRedistributeOverTCP(t *testing.T) {
	g := rangeset.Box([]int{0, 0}, []int{9, 9})
	r, err := msg.NewRunner(4, true)
	if err != nil {
		t.Fatal(err)
	}
	err = r.Run(func(c *msg.Comm) error {
		a, err := New[float64](c, "u", mustBlock(t, g, []int{4, 1}))
		if err != nil {
			return err
		}
		a.Fill(coordVal)
		b, err := a.Redistribute(mustBlock(t, g, []int{1, 4}))
		if err != nil {
			return err
		}
		b.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if b.At(cd) != coordVal(cd) {
				panic("TCP redistribute corrupted values")
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
