package stream

import (
	"fmt"
	"io"

	"drms/internal/array"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// Sequential-channel streaming (§3.2): "serial streaming does not require
// seek capability for the output stream, as each streaming operation can
// simply append to the previous one. Because of this characteristic,
// serial streaming can be performed through a sequential channel, such as
// a UNIX socket or tape drive."
//
// WriteTo and ReadFrom implement exactly that: the same
// partition/exchange machinery as parallel streaming, but with one
// designated I/O task appending to (or consuming from) a plain io.Writer
// / io.Reader — a TCP connection, a pipe, a tape. Only the I/O task's
// channel argument is used; the other tasks pass nil and participate in
// the redistribution rounds. The per-piece canonical distributions come
// from the same plan table as parallel streaming, keyed with the I/O
// task, so repeated sequential streams replay their rounds too.

// WriteTo streams section x of a in linearization order to w, which only
// task ioTask needs to provide. Collective. Returns this task's stats.
// Public API though only tests call it: §3.2's sequential channel (DESIGN's "Sequential-channel streaming" row).
func WriteTo[T array.Elem](a *array.Array[T], x rangeset.Slice, w io.Writer, ioTask int, o Options) (Stats, error) {
	comm, err := commOf(a, x)
	if err != nil {
		return Stats{}, err
	}
	if err := checkIOTask(comm, ioTask); err != nil {
		return Stats{}, err
	}
	if comm.Rank() == ioTask && w == nil {
		return Stats{}, fmt.Errorf("stream: I/O task %d has no writer", ioTask)
	}
	es := array.ElemSize[T]()
	sp, err := planForSeq(comm, a.Global(), x, es, ioTask, o)
	if err != nil {
		return Stats{}, err
	}
	st := Stats{StreamBytes: sp.total, Pieces: len(sp.pieces)}
	me := comm.Rank()

	var buf []byte
	defer func() { recycleBuf(buf) }()
	for i, piece := range sp.pieces {
		var b []byte
		if me == ioTask && !piece.Empty() {
			b = sizeBuf(&buf, piece.Size()*es)
		}
		sent, err := array.PackPieces(a, sp.rounds[i], o.Order, b)
		if err != nil {
			return st, err
		}
		st.NetBytes += sent
		if len(b) > 0 {
			if o.PieceHook != nil {
				o.PieceHook(i, 0, b)
			}
			if _, err := w.Write(b); err != nil {
				return st, fmt.Errorf("stream: sequential write of piece %d: %w", i, err)
			}
			st.StoredBytes += int64(len(b))
		}
	}
	return st, nil
}

// ReadFrom streams section x into a from r, the inverse of WriteTo. The
// channel must deliver the section's linearization (same order, element
// type and piece-independent layout). Collective.
// Public API though only tests call it: §3.2's sequential channel (DESIGN's "Sequential-channel streaming" row).
func ReadFrom[T array.Elem](a *array.Array[T], x rangeset.Slice, r io.Reader, ioTask int, o Options) (Stats, error) {
	comm, err := commOf(a, x)
	if err != nil {
		return Stats{}, err
	}
	if err := checkIOTask(comm, ioTask); err != nil {
		return Stats{}, err
	}
	if comm.Rank() == ioTask && r == nil {
		return Stats{}, fmt.Errorf("stream: I/O task %d has no reader", ioTask)
	}
	es := array.ElemSize[T]()
	sp, err := planForSeq(comm, a.Global(), x, es, ioTask, o)
	if err != nil {
		return Stats{}, err
	}
	st := Stats{StreamBytes: sp.total, Pieces: len(sp.pieces)}
	me := comm.Rank()

	var buf []byte
	defer func() { recycleBuf(buf) }()
	for i, piece := range sp.pieces {
		var b []byte
		if me == ioTask && !piece.Empty() {
			b = sizeBuf(&buf, piece.Size()*es)
			if _, err := io.ReadFull(r, b); err != nil {
				return st, fmt.Errorf("stream: sequential read of piece %d: %w", i, err)
			}
			if o.PieceHook != nil {
				o.PieceHook(i, 0, b)
			}
		}
		sent, err := array.UnpackPieces(a, sp.rounds[i], o.Order, b)
		if err != nil {
			return st, err
		}
		st.NetBytes += sent
	}
	return st, nil
}

func checkIOTask(comm *msg.Comm, ioTask int) error {
	if ioTask < 0 || ioTask >= comm.Size() {
		return fmt.Errorf("stream: I/O task %d outside 0..%d", ioTask, comm.Size()-1)
	}
	return nil
}
