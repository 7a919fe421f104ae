package array

import (
	"fmt"

	"drms/internal/rangeset"
)

// assignReference is the plan-free assignment: intersections, run
// decompositions, and offsets recomputed on every call, exchanged with
// the dense all-to-all. It is the semantic reference the plan-cached
// Assign is property-tested against (and the baseline its benchmarks are
// measured from); keep the two in lockstep when the model changes.
func assignReference[T Elem](dst, src *Array[T]) error {
	if !dst.Global().Equal(src.Global()) {
		return fmt.Errorf("array assign %q <- %q: global shapes %v and %v differ",
			dst.name, src.name, dst.Global(), src.Global())
	}
	if dst.comm != src.comm {
		return fmt.Errorf("array assign %q <- %q: different communicators", dst.name, src.name)
	}
	c := src.comm
	p := c.Rank()
	n := c.Size()
	es := ElemSize[T]()

	send := make([][]byte, n)
	myAssigned := src.d.Assigned(p)
	for q := 0; q < n; q++ {
		sec := myAssigned.Intersect(dst.d.Mapped(q))
		if sec.Empty() {
			continue
		}
		send[q] = getBuf(sec.Size() * es)
		if err := src.PackSectionInto(sec, rangeset.ColMajor, send[q]); err != nil {
			return err
		}
	}

	recv, err := c.Alltoall(send)
	for _, b := range send {
		putBuf(b)
	}
	if err != nil {
		return fmt.Errorf("array assign %q <- %q: %w", dst.name, src.name, err)
	}

	myMapped := dst.d.Mapped(p)
	for q := 0; q < n; q++ {
		sec := src.d.Assigned(q).Intersect(myMapped)
		if sec.Empty() {
			continue
		}
		if err := dst.UnpackSection(sec, rangeset.ColMajor, recv[q]); err != nil {
			return err
		}
	}
	return nil
}

// PackSection linearizes the elements of section s (which must be a
// subset of this task's mapped section) in the given order and returns
// their wire encoding.
func (a *Array[T]) PackSection(s rangeset.Slice, order rangeset.Order) ([]byte, error) {
	out := make([]byte, s.Size()*ElemSize[T]())
	if err := a.PackSectionInto(s, order, out); err != nil {
		return nil, err
	}
	return out, nil
}

// UnpackSection stores a wire buffer produced by PackSection with the
// same section and order into the local storage, run by run (the exact
// inverse of PackSectionInto).
func (a *Array[T]) UnpackSection(s rangeset.Slice, order rangeset.Order, buf []byte) error {
	return a.moveSection(s, order, buf, decodeRun)
}
