package seg

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
	"slices"

	"drms/internal/frame"
)

// The pair of functions that gob-encode: a variable's value is any
// application type, and its blob the one part of a segment in gob.

// Encode captures the current values of all registered variables together
// with the context and size model. The payload is a function of those
// values: names are stored in ascending order, and gob encodes each
// variable's value alone.
func (s *Segment) Encode() ([]byte, error) {
	p := Payload{Ctx: s.Ctx, Model: s.Model, Names: slices.Sorted(maps.Keys(s.vars))}
	for _, n := range p.Names {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s.vars[n]); err != nil {
			return nil, fmt.Errorf("seg: encoding %q: %w", n, err)
		}
		p.Blobs = append(p.Blobs, buf.Bytes())
	}
	return p.Encode(), nil
}

// Decode restores a payload produced by Encode into the registered
// variables. Every payload variable must be registered (with a pointer of
// the matching type); registered variables missing from the payload are
// an error too — the segment layout is part of the SPMD program text and
// must agree between checkpoint and restart.
func (s *Segment) Decode(data []byte) error {
	var p Payload
	if err := frame.Decode(data, p.walk); err != nil {
		return fmt.Errorf("seg: decoding payload: %w", err)
	}
	if len(p.Names) != len(s.vars) || len(p.Blobs) != len(p.Names) {
		return fmt.Errorf("seg: payload has %d variables and %d blobs, %d registered", len(p.Names), len(p.Blobs), len(s.vars))
	}
	for i, n := range p.Names {
		ptr, ok := s.vars[n]
		if !ok || i > 0 && n <= p.Names[i-1] {
			return fmt.Errorf("seg: payload variable %q not registered, or not in ascending order", n)
		}
		if err := gob.NewDecoder(bytes.NewReader(p.Blobs[i])).Decode(ptr); err != nil {
			return fmt.Errorf("seg: decoding %q: %w", n, err)
		}
	}
	s.Ctx = p.Ctx
	s.Model = p.Model
	return nil
}
