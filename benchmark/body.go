package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"drms/internal/array"
	"drms/internal/ckpt"
	"drms/internal/dist"
	"drms/internal/drms"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// The benchmark-owned application. Every incarnation and every
// communicator epoch runs app.body: declare the workload's arrays,
// register iter, fill from the seed (launch epoch of a writer only), take
// the first SOP — a checkpoint when launched fresh, the restore when
// launched with RestartFrom or entered through a resize or replacement
// epoch — report its status, and then serve tickets from the driver until
// told to stop. One ticket is one collective step: rank 0 blocks on the
// ticket channel and broadcasts what it got, peers block inside that
// broadcast, so an idle application costs nothing and no timed path polls.

type ticketKind byte

const (
	// tkCkpt: the workload's dirty step, then Task.ReconfigCheckpoint;
	// every rank reports.
	tkCkpt ticketKind = iota + 1
	// tkSettle: tkCkpt without the dirty step, so the oracle stays valid.
	// Only workloads whose every generation is a full image settle, so
	// the checkpoint does the same work either way.
	tkSettle
	// tkSum: every array's Checksum; rank 0 reports the values.
	tkSum
	// tkResize: checkpointing SOPs with no dirty step until the armed
	// Handle.Resize unwinds the epoch. No report: the new epoch's first
	// SOP reports Restored.
	tkResize
	// tkPark: block inside the communicator until the epoch is retired
	// (PartialRecover's shrink) or revoked (the supervisor's kill), the
	// way a computing application would be found by a failure.
	tkPark
	// tkStop: return nil.
	tkStop
)

// ticket is one driver request. seed drives the dirty step's window
// offsets and values.
type ticket struct {
	kind ticketKind
	seed uint64
}

func (tk ticket) encode() []byte {
	b := make([]byte, 9)
	b[0] = byte(tk.kind)
	binary.LittleEndian.PutUint64(b[1:], tk.seed)
	return b
}

func decodeTicket(b []byte) (ticket, error) {
	if len(b) != 9 {
		return ticket{}, fmt.Errorf("benchmark: ticket frame of %d bytes", len(b))
	}
	return ticket{kind: ticketKind(b[0]), seed: binary.LittleEndian.Uint64(b[1:])}, nil
}

// report is what a rank tells the driver after a first SOP or a ticket.
type report struct {
	rank   int
	status drms.Status
	sums   []float64 // tkSum and reader incarnations, rank 0 only
}

// parkTag is the user tag rank 0 blocks on while parked; nobody sends it.
const parkTag = 7

// app is one application instance's wiring to the driver.
type app struct {
	w      *workload
	prefix string // the checkpoint prefix its SOPs write under
	seed   uint64
	writer bool // fills at launch and serves tickets; a reader restores, sums and exits
	// tickets is unbuffered: a send returns once the serving rank 0 has
	// the ticket, which is what lets the driver order a park before a
	// shrink.
	tickets chan ticket
	// reports is buffered for one report per rank of the largest
	// communicator, so ranks never block on the driver.
	reports chan report
	tr      *tracer
}

func newApp(w *workload, seed uint64, writer bool, tr *tracer) *app {
	return &app{w: w, prefix: ckptPrefix, seed: seed, writer: writer, tr: tr,
		tickets: make(chan ticket), reports: make(chan report, 2*writerTasks)}
}

// stateArray is one declared array behind its element type.
type stateArray interface {
	fill(seed uint64, palette int)
	dirty(seed uint64, window, palette int)
	checksum() (float64, error)
	// The rest serves the layer probes.
	ref() ckpt.ArrayRef
	dist() *dist.Distribution
	// assigner returns a function that redistributes the array into an
	// auxiliary array under ad, the way one streaming round does.
	assigner(ad *dist.Distribution) (func() error, error)
	// packAssigned linearizes this rank's assigned section into *buf
	// (grown as needed) and returns its size in bytes.
	packAssigned(buf *[]byte) (int, error)
}

type typedArray[T array.Elem] struct {
	a      *array.Array[T]
	static bool
}

// mix is splitmix64: the benchmark's only source of pseudo-randomness, so
// the same seed gives the same inputs on every rank and every run.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// value maps a hash to a small exactly-representable number: sums of
// such values are exact in float64 in any order, so Array.Checksum is a
// strict oracle. With a palette the value is one of that many.
func value[T array.Elem](h uint64, palette int) T {
	if palette > 0 {
		return T(h % uint64(palette))
	}
	return T(h % 4096)
}

func (s typedArray[T]) fill(seed uint64, palette int) {
	// Local storage is filled by position in the mapped section; the
	// per-rank stream keeps shadow copies unequal to their owners' values,
	// which is fine: only assigned elements are checkpointed and summed.
	base := mix(seed ^ uint64(s.a.Comm().Rank())<<32)
	local := s.a.Local()
	for i := range local {
		local[i] = value[T](mix(base+uint64(i)), palette)
	}
}

func (s typedArray[T]) dirty(seed uint64, window, palette int) {
	if s.static {
		return
	}
	local := s.a.Local()
	lo, n := 0, len(local)
	if window > 0 && window < n {
		// Window-aligned offsets: a window never straddles two streaming
		// pieces (piece lengths are multiples of the window), so every
		// dirty step dirties the same number of pieces whatever the seed.
		lo = int(mix(seed^uint64(s.a.Comm().Rank()))%uint64(n/window)) * window
		n = window
	}
	for i := lo; i < lo+n; i++ {
		local[i] = value[T](mix(seed+uint64(i)), palette)
	}
}

func (s typedArray[T]) checksum() (float64, error) { return s.a.Checksum() }

func (s typedArray[T]) ref() ckpt.ArrayRef       { return ckpt.Ref(s.a) }
func (s typedArray[T]) dist() *dist.Distribution { return s.a.Dist() }

func (s typedArray[T]) assigner(ad *dist.Distribution) (func() error, error) {
	aux, err := array.New[T](s.a.Comm(), s.a.Name()+".aux", ad)
	if err != nil {
		return nil, err
	}
	return func() error { return array.Assign(aux, s.a) }, nil
}

func (s typedArray[T]) packAssigned(buf *[]byte) (int, error) {
	sec := s.a.Assigned()
	n := sec.Size() * array.ElemSize[T]()
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	return n, s.a.PackSectionInto(sec, rangeset.ColMajor, *buf)
}

// declare builds one array of the workload's state: registered with the
// run-time system when t is non-nil (the application), bare on the
// communicator otherwise (a layer probe).
func declare[T array.Elem](t *drms.Task, c *msg.Comm, spec arraySpec) (stateArray, error) {
	d, err := spec.dist(c.Size())
	if err != nil {
		return nil, err
	}
	var a *array.Array[T]
	if t != nil {
		a, err = drms.NewArray[T](t, spec.name, d)
	} else {
		a, err = array.New[T](c, spec.name, d)
	}
	if err != nil {
		return nil, err
	}
	return typedArray[T]{a: a, static: spec.static}, nil
}

func declareAll(w *workload, t *drms.Task, c *msg.Comm) ([]stateArray, error) {
	state := make([]stateArray, 0, len(w.arrays))
	for _, spec := range w.arrays {
		var (
			s   stateArray
			err error
		)
		if spec.kind == kindI32 {
			s, err = declare[int32](t, c, spec)
		} else {
			s, err = declare[float64](t, c, spec)
		}
		if err != nil {
			return nil, err
		}
		state = append(state, s)
	}
	return state, nil
}

func checksums(state []stateArray) ([]float64, error) {
	sums := make([]float64, len(state))
	for i, s := range state {
		v, err := s.checksum()
		if err != nil {
			return nil, err
		}
		sums[i] = v
	}
	return sums, nil
}

// body is the application function handed to drms.Start and coord.RC.
func (a *app) body(t *drms.Task) error {
	state, err := declareAll(a.w, t, t.Comm())
	if err != nil {
		return err
	}
	iter := 0
	t.Register("iter", &iter)
	if a.writer && t.Comm().Epoch() == 0 {
		for i, s := range state {
			s.fill(a.seed+uint64(i), a.w.palette)
		}
	}
	rank0 := t.Rank() == 0
	sp := a.tr.beginIf(rank0, "drms.first_sop")
	status, _, err := t.ReconfigCheckpoint(a.prefix)
	sp.end()
	if err != nil {
		return err
	}
	a.reports <- report{rank: t.Rank(), status: status}
	if !a.writer {
		sums, err := checksums(state)
		if err != nil {
			return err
		}
		if rank0 {
			a.reports <- report{sums: sums}
		}
		return nil
	}
	for {
		var frame []byte
		if rank0 {
			frame = (<-a.tickets).encode()
		}
		if frame, err = t.Comm().Bcast(0, frame); err != nil {
			return err
		}
		tk, err := decodeTicket(frame)
		if err != nil {
			return err
		}
		switch tk.kind {
		case tkStop:
			return nil
		case tkCkpt, tkSettle:
			if tk.kind == tkCkpt {
				for i, s := range state {
					s.dirty(tk.seed+uint64(i), a.w.window, a.w.palette)
				}
			}
			iter++
			sp := a.tr.beginIf(rank0, "drms.sop")
			status, _, err := t.ReconfigCheckpoint(a.prefix)
			sp.end()
			if err != nil {
				return err
			}
			a.reports <- report{rank: t.Rank(), status: status}
		case tkSum:
			sums, err := checksums(state)
			if err != nil {
				return err
			}
			if rank0 {
				a.reports <- report{sums: sums}
			}
		case tkResize:
			for {
				if _, _, err := t.ReconfigCheckpoint(a.prefix); err != nil {
					return err // the resize unwind (or a real failure): drms parks or fails the run
				}
			}
		case tkPark:
			if rank0 {
				_, err = t.Comm().Recv((t.Rank()+1)%t.Tasks(), parkTag)
				return err
			}
			// Peers park in the next ticket broadcast.
		default:
			return fmt.Errorf("benchmark: unknown ticket kind %d", tk.kind)
		}
	}
}

// sumsEqual compares checksum vectors bit for bit (NaN never matches).
func sumsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
