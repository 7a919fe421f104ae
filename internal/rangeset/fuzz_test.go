package rangeset

import (
	"testing"
)

// FuzzIntersect cross-checks the analytic intersection of regular ranges
// against the set-model reference under fuzzer-chosen parameters, and
// Equal against its element-wise definition on the operands, on the
// result and on the result rebuilt from the model's elements, and Within
// against the model's containment.
func FuzzIntersect(f *testing.F) {
	f.Add(0, 10, 1, 0, 10, 1)
	f.Add(3, 30, 4, 1, 30, 6)
	f.Add(-5, 100, 7, 2, 90, 3)
	f.Add(5, 1, 0, 5, 1, 6) // one element each, different steps
	f.Add(4, 0, 1, 9, 0, 2) // both empty
	f.Fuzz(func(t *testing.T, lo1, n1, s1, lo2, n2, s2 int) {
		a := clampReg(lo1, n1, s1)
		b := clampReg(lo2, n2, s2)
		got := a.Intersect(b)
		in := map[int]bool{}
		for _, v := range a.Elements() {
			in[v] = true
		}
		var common []int
		for _, v := range b.Elements() {
			if in[v] {
				if !got.Contains(v) {
					t.Fatalf("%v ∩ %v missing %d", a, b, v)
				}
				common = append(common, v)
			}
		}
		if got.Size() != len(common) {
			t.Fatalf("%v ∩ %v has %d elements, want %d", a, b, got.Size(), len(common))
		}
		for _, p := range [][2]Range{{a, b}, {a, got}, {got, List(common...)}, {got, rawList(common...)}} {
			if eq, want := p[0].Equal(p[1]), equalRef(p[0], p[1]); eq != want {
				t.Fatalf("%#v.Equal(%#v) = %v, element-wise %v", p[0], p[1], eq, want)
			}
		}
		if !got.Equal(rawList(common...)) {
			t.Fatalf("%v ∩ %v = %v is not the model's %v", a, b, got, common)
		}
		for _, p := range [][2]Range{{a, b}, {b, a}} {
			if w, want := p[0].Within(p[1]), len(common) == p[0].Size(); w != want {
				t.Fatalf("%#v.Within(%#v) = %v, model %v", p[0], p[1], w, want)
			}
		}
		for _, x := range []Range{got, rawList(common...)} {
			if !x.Within(a) || !x.Within(b) {
				t.Fatalf("%v ∩ %v = %v not within both operands", a, b, x)
			}
		}
	})
}

// clampReg coerces arbitrary fuzz integers into a valid bounded range.
func clampReg(lo, n, s int) Range {
	lo = lo % 1000
	count := n % 200
	if count < 0 {
		count = -count
	}
	step := s % 16
	if step < 0 {
		step = -step
	}
	step++
	if count == 0 {
		return Range{}
	}
	return Reg(lo, lo+(count-1)*step, step)
}

// FuzzHalvesPartition checks the streaming-order invariants of splitting
// under arbitrary regular ranges.
func FuzzHalvesPartition(f *testing.F) {
	f.Add(0, 20, 3)
	f.Fuzz(func(t *testing.T, lo, n, s int) {
		r := clampReg(lo, n, s)
		a, b := r.Halves()
		if a.Size()+b.Size() != r.Size() {
			t.Fatalf("halves of %v lose elements", r)
		}
		if !b.Empty() && a.Max() >= b.Min() {
			t.Fatalf("halves of %v out of order", r)
		}
	})
}
