// Package array implements DRMS distributed arrays (§3.1): abstract
// global Cartesian index spaces whose sections are concretely present in
// the tasks of a parallel application, and the array assignment operation
// that moves data between two arrays with arbitrary, different
// distributions. Array assignment is the primitive on which data
// redistribution, computational steering, inter-application communication
// and — via the stream package — scalable checkpointing are built.
// Streaming uses the assignment in a second form, the piece exchange
// (PackPieces/UnpackPieces): one side is a stream piece held as bytes in
// its I/O buffer, so a redistributed piece is never a typed array.
package array

import (
	"fmt"

	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
	"drms/internal/xsum"
)

// Array is one task's handle on a distributed array: the global
// descriptor plus the local storage for this task's mapped section. SPMD
// tasks each construct their own handle with identical name, distribution
// and element type.
//
// Local storage holds the mapped section linearized in column-major order
// of the mapped slice. Elements of the mapped section outside the
// assigned section are shadow copies; their values are defined by the
// owning task and refreshed by assignment operations.
type Array[T Elem] struct {
	name  string
	d     *dist.Distribution
	comm  *msg.Comm
	local []T
}

// New allocates a task's handle on the distributed array `name` with
// distribution d. Every task of comm must call New with equal arguments
// (SPMD). The local storage is zeroed.
func New[T Elem](comm *msg.Comm, name string, d *dist.Distribution) (*Array[T], error) {
	if d.Tasks() != comm.Size() {
		return nil, fmt.Errorf("array %q: distribution spans %d tasks but communicator has %d",
			name, d.Tasks(), comm.Size())
	}
	return &Array[T]{
		name:  name,
		d:     d,
		comm:  comm,
		local: make([]T, d.Mapped(comm.Rank()).Size()),
	}, nil
}

// Name returns the array's global name.
func (a *Array[T]) Name() string { return a.name }

// Comm returns the communicator the array lives on.
func (a *Array[T]) Comm() *msg.Comm { return a.comm }

// Dist returns the array's distribution.
func (a *Array[T]) Dist() *dist.Distribution { return a.d }

// Global returns the global index space.
func (a *Array[T]) Global() rangeset.Slice { return a.d.Global() }

// Mapped returns this task's mapped section.
func (a *Array[T]) Mapped() rangeset.Slice { return a.d.Mapped(a.comm.Rank()) }

// Assigned returns this task's assigned section.
func (a *Array[T]) Assigned() rangeset.Slice { return a.d.Assigned(a.comm.Rank()) }

// Local exposes the raw local storage (mapped section, column-major).
// Compute kernels index it directly via LocalIndex or with precomputed
// strides for dense sections.
func (a *Array[T]) Local() []T { return a.local }

// LocalIndex returns the local-storage position of global coordinate c,
// which must lie in the mapped section.
func (a *Array[T]) LocalIndex(c []int) int {
	off, ok := a.Mapped().Offset(c, rangeset.ColMajor)
	if !ok {
		panic(fmt.Sprintf("array %q: coordinate %v not mapped to task %d", a.name, c, a.comm.Rank()))
	}
	return off
}

// At returns the local copy of the element at global coordinate c.
func (a *Array[T]) At(c []int) T { return a.local[a.LocalIndex(c)] }

// Set stores v into the local copy of the element at global coordinate c.
func (a *Array[T]) Set(c []int, v T) { a.local[a.LocalIndex(c)] = v }

// Fill sets every mapped element from f(c). Tasks fill shadow copies too,
// so after Fill all copies are consistent iff f is a pure function of the
// coordinate.
func (a *Array[T]) Fill(f func(c []int) T) {
	m := a.Mapped()
	i := 0
	m.Each(rangeset.ColMajor, func(c []int) {
		a.local[i] = f(c)
		i++
	})
}

// runStride returns the distance in a column-major local storage of the
// mapped section m between elements consecutive along the fastest-varying
// axis of the given linearization order. The runs storageRuns emits for
// that order step by exactly this stride in local storage: a run holds
// consecutive ranks of m's fast-axis range, so the stride is the constant
// layout stride of that axis.
func runStride(m rangeset.Slice, order rangeset.Order) int {
	d := m.Rank()
	if order == rangeset.ColMajor || d <= 1 {
		return 1 // axis 0 is the fastest-varying axis of the storage itself
	}
	stride := 1
	for i := 0; i < d-1; i++ {
		stride *= m.Axis(i).Size()
	}
	return stride
}

// PackSectionInto linearizes the elements of section s (which must be a
// subset of this task's mapped section) in the given order into buf, a
// caller-supplied buffer of exactly the section's wire size, so hot paths
// (assignment, streaming) can reuse buffers across operations. It moves
// data one storage run at a time (storageRuns, the enumerator the plans
// are built from): a section that is contiguous in the mapped storage — a
// stream piece on its canonical distribution — is a single dense encode
// loop.
func (a *Array[T]) PackSectionInto(s rangeset.Slice, order rangeset.Order, buf []byte) error {
	return a.moveSection(s, order, buf, encodeRun)
}

// moveSection applies move (encodeRun or decodeRun) to every storage run
// of s and the part of buf that holds it on the wire.
func (a *Array[T]) moveSection(s rangeset.Slice, order rangeset.Order, buf []byte, move func(local any, buf []byte, base, n, stride int)) error {
	es := ElemSize[T]()
	if len(buf) != s.Size()*es {
		return fmt.Errorf("array %q: section %v needs %d bytes, got %d",
			a.name, s, s.Size()*es, len(buf))
	}
	stride := runStride(a.Mapped(), order)
	local := any(a.local) // boxed once; the per-run type switch is then free of allocation
	o := 0
	storageRuns(s, a.Mapped(), rangeset.ColMajor, order, func(off, n int) {
		move(local, buf[o:], off, n, stride)
		o += n * es
	})
	return nil
}

// Assign implements the DRMS array assignment B <- A for this task: every
// element of B present in any task's address space (assigned or shadow
// copy) receives the value of the corresponding element of A, all copies
// updated consistently. A and B must have the same global shape and live
// on the same communicator; their distributions are arbitrary. Elements
// of B not assigned in A (undefined in A) are left untouched. Assign is a
// collective: every task must call it.
//
// Assign executes a cached communication plan (see plan.go): the first
// assignment between a given pair of distributions computes the schedule
// — per-peer intersection runs, buffer sizes, and the sparse exchange
// graph — and every repeat replays it, which is what makes steady-state
// periodic checkpointing and per-iteration shadow exchanges cheap.
func Assign[T Elem](dst, src *Array[T]) error {
	if !dst.Global().Equal(src.Global()) {
		return fmt.Errorf("array assign %q <- %q: global shapes %v and %v differ",
			dst.name, src.name, dst.Global(), src.Global())
	}
	if dst.comm != src.comm {
		return fmt.Errorf("array assign %q <- %q: different communicators", dst.name, src.name)
	}
	c := src.comm
	es := ElemSize[T]()
	pl := assignPlanFor(src.d, dst.d, c, es)

	// Phase 1: pack this task's contribution to every active peer at the
	// plan's precomputed offsets. Buffers come from the pool and are
	// handed off by the exchange: the peer that unpacks one puts it back.
	srcLocal := any(src.local)
	for i := range pl.send {
		px := &pl.send[i]
		buf := getBuf(px.bytes)
		packRuns(srcLocal, buf, px.runs, es, 1)
		pl.sendBufs[px.peer] = buf
	}

	// Phase 2: the sparse exchange.
	recv, xerr := pl.exchange(c)
	if xerr != nil {
		return fmt.Errorf("array assign %q <- %q: %w", dst.name, src.name, xerr)
	}

	// The self-overlap never leaves the task: both sides planned the same
	// section, so the two run lists hold the same elements in the same
	// order and copy element-typed, skipping the wire codec entirely. (For
	// the self-assignment A <- A the lists coincide and the copies are
	// identities.)
	zipRuns(pl.selfDst, pl.selfSrc, 1, func(d, s, n int) {
		copy(dst.local[d:d+n], src.local[s:s+n])
	})

	// Phase 3: unpack what every active owner sent for this task's mapped
	// section of B, and recycle each buffer once its bytes have landed:
	// the owner took one from the pool for it, so the pool gets one back.
	dstLocal := any(dst.local)
	for i := range pl.recv {
		unpackRuns(dstLocal, recv[pl.recv[i].peer], pl.recv[i].runs, es, 1)
		putBuf(recv[pl.recv[i].peer])
	}
	return nil
}

// Redistribute returns a new handle on the same logical array with
// distribution nd, with all element values carried over (drms_distribute
// after drms_adjust). Collective.
func (a *Array[T]) Redistribute(nd *dist.Distribution) (*Array[T], error) {
	b, err := New[T](a.comm, a.name, nd)
	if err != nil {
		return nil, err
	}
	if err := Assign(b, a); err != nil {
		return nil, err
	}
	return b, nil
}

// ExchangeShadows refreshes every shadow copy (mapped but not assigned
// element) from its owner. It is the halo exchange grid solvers perform
// between iterations, expressed as the self-assignment A <- A.
func (a *Array[T]) ExchangeShadows() error {
	return Assign(a, a)
}

// Gather collects the full array at task root in the global linearization
// order given (the distribution-independent representation). On root the
// result has Global().Size() elements; elsewhere it is nil. Collective.
// Unassigned (undefined) elements are zero.
//
// Like Assign, Gather executes a cached plan: each task's pack runs and
// root's per-sender scatter runs into the dense global space are computed
// once per (distribution, root, order) and replayed on every repeat.
func (a *Array[T]) Gather(root int, order rangeset.Order) ([]T, error) {
	c := a.comm
	p := c.Rank()
	es := ElemSize[T]()
	pl := gatherPlanFor(a.d, c, root, order, es)
	buf := getBuf(pl.packBytes)
	packRuns(any(a.local), buf, pl.packRuns, es, pl.packStride)
	send := buf
	if p == root {
		send = nil // root unpacks its own contribution straight from buf
	}
	parts, err := c.Gather(root, send)
	if err != nil || p != root {
		putBuf(buf)
		if err != nil {
			err = fmt.Errorf("array %q: gather: %w", a.name, err)
		}
		return nil, err
	}
	// Only the pack buffer goes back to the pool. Root alone receives
	// here and takes one buffer per call, so recycling the transport's
	// P-1 copies as well would pile up a surplus that a sync.Pool keeps
	// reachable for two GC cycles — live heap the collector doubles.
	parts[root] = buf
	out := make([]T, a.Global().Size())
	boxed := any(out)
	for q := 0; q < c.Size(); q++ {
		unpackRuns(boxed, parts[q], pl.scatter[q], es, 1)
	}
	putBuf(buf)
	return out, nil
}

// Checksum returns a distribution-independent checksum: the sum of every
// assigned element (shadow copies excluded) taken as float64(v), computed
// exactly and rounded once to nearest-even. An exact sum does not depend
// on the order of its terms, so any task count or distribution of the same
// values gives the same bits, and no element moves: each task adds its own
// elements into an xsum accumulator, and one Allgather of the fixed-size
// accumulators gives every task the total. Collective.
func (a *Array[T]) Checksum() (float64, error) {
	// Gather's cached plan holds the runs of the assigned section in local
	// storage: its pack side.
	runs := gatherPlanFor(a.d, a.comm, 0, rangeset.ColMajor, ElemSize[T]()).packRuns
	var own xsum.Acc
	f, isF64 := any(a.local).([]float64)
	var buf [256]float64
	for _, r := range runs {
		if isF64 {
			own.AddSlice(f[r.off : r.off+r.n])
			continue
		}
		for run := a.local[r.off : r.off+r.n]; len(run) > 0; {
			chunk := buf[:min(len(run), len(buf))]
			for i := range chunk {
				chunk[i] = float64(run[i])
			}
			own.AddSlice(chunk)
			run = run[len(chunk):]
		}
	}
	frames, err := a.comm.Allgather(own.AppendBinary(nil))
	if err != nil {
		return 0, fmt.Errorf("array %q: checksum: %w", a.name, err)
	}
	sum, err := xsum.Decode(frames...)
	if err != nil {
		return 0, fmt.Errorf("array %q: checksum: %w", a.name, err)
	}
	return sum.Float64(), nil
}
