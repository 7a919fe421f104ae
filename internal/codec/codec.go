// Package codec provides the per-piece checkpoint codecs: a raw
// passthrough and DEFLATE (stdlib compress/flate at BestSpeed). Chained
// checkpoints store each streamed piece under one of these codecs,
// self-describingly — the codec identifier travels with the piece's
// location record, so readers never need out-of-band agreement about
// what a given extent holds and a single checkpoint may freely mix
// codecs piece by piece (e.g. raw fallback for incompressible pieces).
//
// The package is deliberately standard-library-only (enforced by `make
// lint`), and recycles its flate encoder and decoder state through
// sync.Pools: flate.Writer allocation is far more expensive than a
// Reset, and checkpoints encode thousands of pieces per run.
package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// ID names a piece codec on storage. The zero value is Raw, so
// location records from before the codec existed decode as raw — which
// is what they are.
type ID uint8

const (
	// Raw stores the piece bytes verbatim.
	Raw ID = iota
	// Flate stores the piece DEFLATE-compressed (compress/flate,
	// BestSpeed — checkpointing wants throughput, not density).
	Flate
)

func (id ID) String() string {
	switch id {
	case Raw:
		return "raw"
	case Flate:
		return "flate"
	default:
		return fmt.Sprintf("codec(%d)", uint8(id))
	}
}

// MaxExpansion bounds the logical bytes one stored byte decodes to under
// any codec here: DEFLATE's limit is 1032:1 (a 258-byte match in two
// bits), raw's 1:1. A piece record claiming more is corrupt, and a
// reader can refuse it before allocating for it.
const MaxExpansion = 1032

// encPool recycles flate writers; a Reset is ~100x cheaper than
// flate.NewWriter's table allocation.
var encPool = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

// decPool recycles flate readers through the flate.Resetter interface.
var decPool = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

// appendWriter collects flate output by appending to a caller-provided
// buffer, so encode scratch space is reusable across pieces.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// Encode returns src under the given codec. Raw returns src itself (a
// zero-copy alias — callers relying on double buffering get exactly the
// buffer they passed). Flate appends the compressed stream into
// dst[:0], growing it as needed, and returns the filled slice; pass the
// previous call's result back as dst to recycle the allocation.
func Encode(id ID, dst, src []byte) ([]byte, error) {
	switch id {
	case Raw:
		return src, nil
	case Flate:
		fw := encPool.Get().(*flate.Writer)
		aw := &appendWriter{b: dst[:0]}
		fw.Reset(aw)
		if _, err := fw.Write(src); err != nil {
			encPool.Put(fw)
			return nil, fmt.Errorf("codec: flate encode: %w", err)
		}
		if err := fw.Close(); err != nil {
			encPool.Put(fw)
			return nil, fmt.Errorf("codec: flate close: %w", err)
		}
		encPool.Put(fw)
		return aw.b, nil
	default:
		return nil, fmt.Errorf("codec: unknown codec %d", uint8(id))
	}
}

// Decode fills dst with the decoded form of src, which must decode to
// exactly len(dst) bytes — piece sizes are recorded in the checkpoint
// metadata, so a length mismatch is corruption, not a usage error.
func Decode(id ID, dst, src []byte) error {
	switch id {
	case Raw:
		if len(src) != len(dst) {
			return fmt.Errorf("codec: raw piece is %d bytes, want %d", len(src), len(dst))
		}
		copy(dst, src)
		return nil
	case Flate:
		fr := decPool.Get().(io.ReadCloser)
		if err := fr.(flate.Resetter).Reset(bytes.NewReader(src), nil); err != nil {
			decPool.Put(fr)
			return fmt.Errorf("codec: flate reset: %w", err)
		}
		if _, err := io.ReadFull(fr, dst); err != nil {
			decPool.Put(fr)
			return fmt.Errorf("codec: flate decode: %w", err)
		}
		// The stream must end exactly at len(dst): trailing data means the
		// stored piece does not match its recorded logical size.
		var tail [1]byte
		if n, _ := fr.Read(tail[:]); n != 0 {
			decPool.Put(fr)
			return fmt.Errorf("codec: flate piece decodes past %d bytes", len(dst))
		}
		decPool.Put(fr)
		return nil
	default:
		return fmt.Errorf("codec: unknown codec %d", uint8(id))
	}
}
