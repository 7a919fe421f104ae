package ckpt

import (
	"fmt"

	"drms/internal/array"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/stream"
)

// ArrayRef is the type-erased view of a distributed array the checkpoint
// engine works with, so one checkpoint can hold arrays of mixed element
// types. Obtain one with Ref.
type ArrayRef interface {
	// Name is the array's global name (unique within a checkpoint).
	Name() string
	// Kind names the element type ("float64", ...).
	Kind() string
	// GlobalShape is the array's index space.
	GlobalShape() rangeset.Slice
	// StreamWrite writes the full array in distribution-independent form.
	StreamWrite(fs *pfs.System, file string, o stream.Options) (stream.Stats, error)
	// StreamRead loads the full array under its current distribution.
	StreamRead(fs *pfs.System, file string, o stream.Options) (stream.Stats, error)
	// SectionSums fingerprints this task's contribution to every piece
	// of the full-array write plan (stream.SectionSums) — the owner-side
	// dirtiness test of chained delta checkpoints. Purely local.
	SectionSums(o stream.Options) ([]stream.SectionSum, error)
	// AppendLocalBytes appends the encoding of this task's local (mapped)
	// storage — what an SPMD checkpoint saves per task — to dst. It is
	// MappedElems()*ElemSize() bytes long.
	AppendLocalBytes(dst []byte) []byte
	// SetLocalBytes restores this task's local storage, decoding in place.
	SetLocalBytes(b []byte) error
	// MappedElems returns the local storage element count (for size
	// models: assigned plus shadow).
	MappedElems() int
	// ElemSize returns the element size in bytes.
	ElemSize() int
	// AssignedSection is the section of the index space the array's
	// current distribution assigns to the given rank — the unit of the
	// partial-restore planner's needed-piece computation.
	AssignedSection(rank int) rangeset.Slice
}

type ref[T array.Elem] struct {
	a *array.Array[T]
}

// Ref adapts a typed distributed array to the checkpoint engine.
func Ref[T array.Elem](a *array.Array[T]) ArrayRef { return ref[T]{a} }

func (r ref[T]) Name() string                { return r.a.Name() }
func (r ref[T]) Kind() string                { return array.ElemKind[T]() }
func (r ref[T]) GlobalShape() rangeset.Slice { return r.a.Global() }
func (r ref[T]) MappedElems() int            { return len(r.a.Local()) }
func (r ref[T]) ElemSize() int               { return array.ElemSize[T]() }

func (r ref[T]) AssignedSection(rank int) rangeset.Slice { return r.a.Dist().Assigned(rank) }

func (r ref[T]) StreamWrite(fs *pfs.System, file string, o stream.Options) (stream.Stats, error) {
	return stream.Write(r.a, r.a.Global(), fs, file, o)
}

func (r ref[T]) StreamRead(fs *pfs.System, file string, o stream.Options) (stream.Stats, error) {
	return stream.Read(r.a, r.a.Global(), fs, file, o)
}

func (r ref[T]) SectionSums(o stream.Options) ([]stream.SectionSum, error) {
	return stream.SectionSums(r.a, r.a.Global(), o)
}

func (r ref[T]) AppendLocalBytes(dst []byte) []byte {
	return array.AppendElems(dst, r.a.Local())
}

func (r ref[T]) SetLocalBytes(b []byte) error {
	want := len(r.a.Local()) * array.ElemSize[T]()
	if len(b) != want {
		return fmt.Errorf("local section of %q is %d bytes, got %d", r.a.Name(), want, len(b))
	}
	array.DecodeElemsInto(r.a.Local(), b)
	return nil
}

// LocalSectionBytes sums the mapped-section storage of a task's arrays —
// the "Local sections" component of the Table 4 segment decomposition.
func LocalSectionBytes(arrays []ArrayRef) int64 {
	var n int64
	for _, a := range arrays {
		n += int64(a.MappedElems()) * int64(a.ElemSize())
	}
	return n
}
