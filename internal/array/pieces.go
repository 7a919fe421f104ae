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
// cached schedule (plan.go) with that side's runs addressing the buffer.

// PackPieces moves every assigned element of a that falls in a piece of
// round to the task holding that piece, which lands it in buf — its piece
// in wire form, linearized in order — at the element's byte offset: the
// owner packs in stream order, the holder copies the received bytes run by
// run, and its own overlap is encoded straight from local storage. buf
// must have exactly the piece's size (nil on a task without one); bytes of
// elements no task is assigned are zero. round must share a's global shape
// and span a's communicator. Collective; returns the bytes this task sent
// to others.
func PackPieces[T Elem](a *Array[T], round *dist.Distribution, order rangeset.Order, buf []byte) (int64, error) {
	if err := checkRound(a, round, buf); err != nil {
		return 0, err
	}
	es := ElemSize[T]()
	pl := assignPlanFor(a.d, round, a.comm, es, order, pieceDst)
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
func UnpackPieces[T Elem](a *Array[T], round *dist.Distribution, order rangeset.Order, buf []byte) (int64, error) {
	if err := checkRound(a, round, buf); err != nil {
		return 0, err
	}
	es := ElemSize[T]()
	pl := assignPlanFor(round, a.d, a.comm, es, order, pieceSrc)
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
func checkRound[T Elem](a *Array[T], round *dist.Distribution, buf []byte) error {
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
