package seg

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"fmt"
	"maps"
	"reflect"
	"slices"

	"drms/internal/frame"
)

// The pair of functions that gob-encode: a variable's value is a scalar
// (Register), and its blob the one part of a segment in gob.

// codecs are the methods gob encodes or decodes a value through instead
// of its kind, under a type id the process allocates.
var codecs = []reflect.Type{
	reflect.TypeFor[gob.GobEncoder](), reflect.TypeFor[gob.GobDecoder](),
	reflect.TypeFor[encoding.BinaryMarshaler](), reflect.TypeFor[encoding.BinaryUnmarshaler](),
	reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
}

// scalar refuses variable name unless ptr points to a type gob encodes
// under a predefined type id (Register): gob numbers every other type in
// the order the process first encodes it.
func scalar(name string, ptr any) error {
	t := reflect.TypeOf(ptr)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	k := t.Kind()
	ok := reflect.Bool <= k && k <= reflect.Complex128 || k == reflect.String ||
		k == reflect.Slice && t.Elem().Kind() == reflect.Uint8
	for _, c := range codecs {
		ok = ok && !t.Implements(c) && !reflect.PointerTo(t).Implements(c)
	}
	if !ok {
		return fmt.Errorf("seg: variable %q is a %v; a replicated variable is a bool, number, string or []byte", name, t)
	}
	return nil
}

// Encode captures the current values of all registered variables together
// with the context and size model. The payload is a function of those
// values: names are stored in ascending order, and gob encodes each
// variable's value alone.
func (s *Segment) Encode() ([]byte, error) {
	p := Payload{Ctx: s.Ctx, Model: s.Model, Names: slices.Sorted(maps.Keys(s.vars))}
	for _, n := range p.Names {
		var buf bytes.Buffer
		if err := scalar(n, s.vars[n]); err != nil {
			return nil, err
		}
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
		if err := scalar(n, ptr); err != nil {
			return err
		}
		if err := gob.NewDecoder(bytes.NewReader(p.Blobs[i])).Decode(ptr); err != nil {
			return fmt.Errorf("seg: decoding %q: %w", n, err)
		}
	}
	s.Ctx = p.Ctx
	s.Model = p.Model
	return nil
}
