package array

import (
	"fmt"

	"drms/internal/dist"
	"drms/internal/rangeset"
)

// The piece exchange is the two-phase access strategy of parallel
// streaming (§3.2, Fig. 5b) without the auxiliary array. A streaming round
// is described by a canonical distribution — task p's section is the piece
// it writes or read, tasks without a piece hold nothing — but the pieces
// are never materialised as a typed array: a piece lives in its I/O
// buffer, in wire form, in the stream's element order. A round is thus an
// assignment one side of which is a byte buffer, and runs the assignment's
// schedule (plan.go) with that side's runs addressing the buffer.

// A Round is one round of a piece exchange: the canonical distribution
// that gives task p the round's piece p (Fig. 5b), and the exchange plans
// this rank has run against it. Whoever builds a round owns its plans:
// the stream layer keeps its rounds in the stream plan that built them,
// one per rank and epoch, so a filtered sub-plan it drops takes its fresh
// rounds' plans along. A Round belongs to one task.
type Round struct {
	d     *dist.Distribution
	gen   uint64 // planGen when plans was (re)started
	plans []roundPlan
}

// roundPlan is one exchange planned against a round: the array side's
// distribution and element size, the stream order, and the direction.
type roundPlan struct {
	a     *dist.Distribution
	es    int
	order rangeset.Order
	side  pieceSide
	pl    *assignPlan
}

// NewRound wraps the canonical distribution of one round.
func NewRound(d *dist.Distribution) *Round { return &Round{d: d} }

// plan returns the exchange plan between the array distribution a and
// the round on rank of size tasks, building it on first use.
func (r *Round) plan(a *dist.Distribution, rank, size, es int, order rangeset.Order, side pieceSide) *assignPlan {
	if g := planGen.Load(); r.gen != g {
		r.gen, r.plans = g, nil
	}
	for _, p := range r.plans {
		if p.a == a && p.es == es && p.order == order && p.side == side {
			planHits.Add(1)
			return p.pl
		}
	}
	planMisses.Add(1)
	src, dst := a, r.d
	if side == pieceSrc {
		src, dst = r.d, a
	}
	pl := buildAssignPlan(src, dst, rank, size, es, order, side)
	r.plans = append(r.plans, roundPlan{a, es, order, side, pl})
	return pl
}

// PackPieces moves every assigned element of a that falls in a piece of
// round to the task holding that piece, which lands it in buf — its piece
// in wire form, linearized in order — at the element's byte offset: the
// owner packs in stream order, the holder copies the received bytes run by
// run, and its own overlap is encoded straight from local storage. buf
// must have exactly the piece's size (nil on a task without one); bytes of
// elements no task is assigned are zero. round must share a's global shape
// and span a's communicator. Collective; returns the bytes this task sent
// to others.
func PackPieces[T Elem](a *Array[T], round *Round, order rangeset.Order, buf []byte) (int64, error) {
	if err := checkRound(a, round, buf); err != nil {
		return 0, err
	}
	es := ElemSize[T]()
	pl := round.plan(a.d, a.comm.Rank(), a.comm.Size(), es, order, pieceDst)
	stride := runStride(a.Mapped(), order)
	local := any(a.local)
	for i := range pl.send {
		px := &pl.send[i]
		pl.sendBufs[px.peer] = getBuf(px.bytes)
		packRuns(local, pl.sendBufs[px.peer], px.runs, es, stride)
	}
	recv, err := pl.exchange(a.comm)
	if err != nil {
		return 0, fmt.Errorf("array %q: packing pieces: %w", a.name, err)
	}
	// The buffer is recycled and dirty. Contributions are disjoint, so they
	// tile the piece exactly when their sizes add up to it; otherwise the
	// elements nobody is assigned must read as zeros, as undefined elements
	// do everywhere else.
	if pl.landBytes != len(buf) {
		clear(buf)
	}
	zipRuns(pl.selfDst, pl.selfSrc, stride, func(p, l, n int) {
		encodeRun(local, buf[p*es:], l, n, stride)
	})
	for i := range pl.recv {
		wire := recv[pl.recv[i].peer]
		for _, r := range pl.recv[i].runs {
			wire = wire[copy(buf[r.off*es:(r.off+r.n)*es], wire):]
		}
		putBuf(recv[pl.recv[i].peer])
	}
	return pl.remoteBytes, nil
}

// UnpackPieces is the inverse of PackPieces: buf holds this task's piece
// of round (nil without one), and every task's copy of every element of a
// piece — shadow copies included — receives its value. Elements of a
// outside the round's pieces are untouched, and a piece element no task
// maps is sent to nobody. Collective; returns the bytes this task sent to
// others.
func UnpackPieces[T Elem](a *Array[T], round *Round, order rangeset.Order, buf []byte) (int64, error) {
	if err := checkRound(a, round, buf); err != nil {
		return 0, err
	}
	es := ElemSize[T]()
	pl := round.plan(a.d, a.comm.Rank(), a.comm.Size(), es, order, pieceSrc)
	for i := range pl.send {
		px := &pl.send[i]
		wire := getBuf(px.bytes)
		pl.sendBufs[px.peer] = wire
		for _, r := range px.runs {
			wire = wire[copy(wire, buf[r.off*es:(r.off+r.n)*es]):]
		}
	}
	recv, err := pl.exchange(a.comm)
	if err != nil {
		return 0, fmt.Errorf("array %q: unpacking pieces: %w", a.name, err)
	}
	stride := runStride(a.Mapped(), order)
	local := any(a.local)
	zipRuns(pl.selfSrc, pl.selfDst, stride, func(p, l, n int) {
		decodeRun(local, buf[p*es:], l, n, stride)
	})
	for i := range pl.recv {
		unpackRuns(local, recv[pl.recv[i].peer], pl.recv[i].runs, es, stride)
		putBuf(recv[pl.recv[i].peer])
	}
	return pl.remoteBytes, nil
}

// checkRound makes, on every call, the checks Assign makes of its two
// arrays: round describes pieces of a's index space on a's tasks, and buf
// is this task's piece.
func checkRound[T Elem](a *Array[T], r *Round, buf []byte) error {
	round := r.d
	if !round.Global().Equal(a.Global()) {
		return fmt.Errorf("array %q: pieces of %v exchanged with an array over %v", a.name, round.Global(), a.Global())
	}
	if round.Tasks() != a.comm.Size() {
		return fmt.Errorf("array %q: piece round spans %d tasks but communicator has %d",
			a.name, round.Tasks(), a.comm.Size())
	}
	if want := round.Mapped(a.comm.Rank()).Size() * ElemSize[T](); len(buf) != want {
		return fmt.Errorf("array %q: piece of %d bytes in a buffer of %d", a.name, want, len(buf))
	}
	return nil
}
