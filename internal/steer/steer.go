// Package steer builds computational steering and inter-application
// communication on top of DRMS array-section streaming, the two other
// uses the paper lists for the primitive (§3.1: "The array assignment
// operation is used in DRMS to implement ... computational steering,
// inter-application communication, and ... scalable checkpointing";
// §3.2: streaming "has been used to implement computational steering and
// inter-application communication capabilities").
//
// A Channel is a named, versioned section stream on the shared parallel
// file system. A running SPMD application Publishes a section of a
// distributed array (collective, parallel streaming, distribution
// independent); any consumer — an Observer attached from outside the
// application, or another SPMD application Fetching into its own
// differently-distributed array — sees atomically versioned snapshots.
// Writers alternate between two data files and commit by rewriting the
// small header last, so a reader never observes a torn frame.
package steer

import (
	"fmt"
	"time"

	"drms/internal/array"
	"drms/internal/frame"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/stream"
)

// Header describes the latest committed frame of a channel.
type Header struct {
	Seq     int64 // frame number, starting at 1
	Section rangeset.Slice
	Kind    string // element type name
	Order   rangeset.Order
	Bytes   int64 // frame payload size
}

func hdrFile(ch string) string { return ch + ".hdr" }
func dataFile(ch string, seq int64) string {
	return fmt.Sprintf("%s.data%d", ch, seq%2)
}

// The header file (DESIGN.md §3g): hdrMagic, hdrVersion, then the
// Header's fields in declaration order.
const (
	hdrMagic   = "DRMSsteer"
	hdrVersion = 1
)

func (h *Header) walk(c *frame.Codec) {
	c.Head(hdrMagic, hdrVersion)
	frame.Varint(c, &h.Seq)
	c.Slice(&h.Section)
	c.Str(&h.Kind)
	frame.Varint(c, &h.Order)
	frame.Varint(c, &h.Bytes)
}

func decodeHeader(b []byte, ch string) (h Header, err error) {
	if err = frame.Decode(b, h.walk); err != nil {
		err = fmt.Errorf("steer: corrupt header on channel %q: %w", ch, err)
	}
	return h, err
}

// readHeader fetches the current header and its bytes; ok=false when the
// channel has never been published.
func readHeader(fs *pfs.System, ch string, client int) (h Header, b []byte, ok bool, err error) {
	sz, err := fs.Size(hdrFile(ch))
	if err != nil {
		return h, nil, false, nil // not yet published
	}
	b = make([]byte, sz)
	if err := fs.ReadAt(client, hdrFile(ch), b, 0); err != nil {
		return h, nil, false, err
	}
	h, err = decodeHeader(b, ch)
	return h, b, err == nil, err
}

func writeHeader(fs *pfs.System, ch string, client int, h Header) error {
	fs.Create(hdrFile(ch))
	return fs.WriteAt(client, hdrFile(ch), frame.Encode(h.walk), 0)
}

// Publish commits section x of array a as the channel's next frame.
// Collective over a's communicator; returns the committed sequence
// number. The previous frame remains readable until the one after next
// overwrites its buffer.
func Publish[T array.Elem](a *array.Array[T], x rangeset.Slice, fs *pfs.System, channel string, o stream.Options) (int64, error) {
	comm := a.Comm()
	var seq int64 = 1
	if comm.Rank() == 0 {
		if h, _, ok, err := readHeader(fs, channel, 0); err != nil {
			return 0, err
		} else if ok {
			seq = h.Seq + 1
		}
	}
	agreed, err := comm.AllreduceF64(float64(seq), maxOp)
	if err != nil {
		return 0, err
	}
	seq = int64(agreed)
	st, err := stream.Write(a, x, fs, dataFile(channel, seq), o)
	if err != nil {
		return 0, fmt.Errorf("steer: publishing %q frame %d: %w", channel, seq, err)
	}
	if err := comm.Barrier(); err != nil { // every writer's piece is on the file system
		return 0, err
	}
	if comm.Rank() == 0 {
		h := Header{Seq: seq, Section: x, Kind: array.ElemKind[T](),
			Order: o.Order, Bytes: st.StreamBytes}
		if err := writeHeader(fs, channel, 0, h); err != nil {
			return 0, err
		}
	}
	if err := comm.Barrier(); err != nil { // commit visible before any task proceeds
		return 0, err
	}
	return seq, nil
}

// Fetch loads the channel's latest frame into array a (which may have any
// distribution and task count). Collective. Returns the frame's sequence
// number, or 0 with no error if the channel has never been published.
func Fetch[T array.Elem](a *array.Array[T], fs *pfs.System, channel string, o stream.Options) (int64, error) {
	comm := a.Comm()
	var status float64 // 0 none, 1 ok, -1 error
	var encoded []byte // rank 0's header, broadcast as it read it
	if comm.Rank() == 0 {
		_, b, ok, err := readHeader(fs, channel, 0)
		switch {
		case err != nil:
			status = -1
		case ok:
			status, encoded = 1, b
		}
	}
	status, err := comm.AllreduceF64(status, maxOp)
	if err != nil {
		return 0, err
	}
	if status < 0 {
		return 0, fmt.Errorf("steer: channel %q header unreadable", channel)
	}
	if status == 0 {
		return 0, nil
	}
	if encoded, err = comm.Bcast(0, encoded); err != nil {
		return 0, err
	}
	h, err := decodeHeader(encoded, channel)
	if err != nil {
		return 0, err
	}
	if h.Kind != array.ElemKind[T]() {
		return 0, fmt.Errorf("steer: channel %q carries %s, array %q holds %s",
			channel, h.Kind, a.Name(), array.ElemKind[T]())
	}
	ro := o
	ro.Order = h.Order
	if _, err := stream.Read(a, h.Section, fs, dataFile(channel, h.Seq), ro); err != nil {
		return 0, fmt.Errorf("steer: fetching %q frame %d: %w", channel, h.Seq, err)
	}
	return h.Seq, nil
}

func maxOp(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Observer is a non-collective consumer outside any SPMD application — a
// monitoring UI, a coupler, the "scientist's" end of the steering loop.
type Observer struct {
	FS      *pfs.System
	Channel string
}

// Latest returns the channel's newest frame header and raw payload (the
// section's linearization). ok=false if nothing has been published.
func (ob *Observer) Latest() (Header, []byte, bool, error) {
	h, _, ok, err := readHeader(ob.FS, ob.Channel, 0)
	if err != nil || !ok {
		return h, nil, ok, err
	}
	buf := make([]byte, h.Bytes)
	if err := ob.FS.ReadAt(0, dataFile(ob.Channel, h.Seq), buf, 0); err != nil {
		return h, nil, true, err
	}
	return h, buf, true, nil
}

// WaitSeq polls until the channel's sequence reaches at least minSeq.
func (ob *Observer) WaitSeq(minSeq int64, timeout time.Duration) (Header, []byte, error) {
	deadline := time.Now().Add(timeout)
	for {
		h, data, ok, err := ob.Latest()
		if err != nil {
			return h, nil, err
		}
		if ok && h.Seq >= minSeq {
			return h, data, nil
		}
		if time.Now().After(deadline) {
			return h, nil, fmt.Errorf("steer: channel %q did not reach frame %d in %v",
				ob.Channel, minSeq, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// Inject publishes a frame from outside any application: the observer's
// half of the steering loop. vals are the section's elements in the given
// order; a running application picks them up with Fetch.
func Inject[T array.Elem](fs *pfs.System, channel string, x rangeset.Slice, order rangeset.Order, vals []T) (int64, error) {
	if len(vals) != x.Size() {
		return 0, fmt.Errorf("steer: inject of %d values into a %d-element section", len(vals), x.Size())
	}
	var seq int64 = 1
	if h, _, ok, err := readHeader(fs, channel, 0); err != nil {
		return 0, err
	} else if ok {
		seq = h.Seq + 1
	}
	data := array.EncodeElems(vals)
	fs.Create(dataFile(channel, seq))
	if err := fs.WriteAt(0, dataFile(channel, seq), data, 0); err != nil {
		return 0, err
	}
	h := Header{Seq: seq, Section: x, Kind: array.ElemKind[T](), Order: order, Bytes: int64(len(data))}
	return seq, writeHeader(fs, channel, 0, h)
}
