package rangeset

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Gob support so ranges and slices can travel inside checkpoint metadata.
// The wire form is explicit (regular triple or index list), independent of
// the in-memory representation.

type rangeWire struct {
	Regular    bool
	Lo, Hi, St int
	Idx        []int
}

// GobEncode implements gob.GobEncoder.
func (r Range) GobEncode() ([]byte, error) {
	w := rangeWire{}
	if r.Empty() {
		w.Regular = true
		w.Lo, w.Hi, w.St = 0, -1, 1
	} else if r.regular {
		w.Regular = true
		w.Lo, w.Hi, w.St = r.lo, r.hi, r.step
	} else {
		w.Idx = r.idx
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. Stored bytes that no GobEncode
// writes — a non-positive step, indices out of order — are an error, not
// the panic Reg and List raise for a caller's mistake.
func (r *Range) GobDecode(data []byte) error {
	var w rangeWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	if w.Regular {
		if w.St <= 0 || w.Hi >= w.Lo && w.Hi-w.Lo < 0 {
			return fmt.Errorf("rangeset: stored range %d:%d:%d is not a range", w.Lo, w.Hi, w.St)
		}
		*r = Reg(w.Lo, w.Hi, w.St)
		return nil
	}
	for i := 1; i < len(w.Idx); i++ {
		if w.Idx[i] <= w.Idx[i-1] {
			return fmt.Errorf("rangeset: stored indices not strictly increasing at %d", i)
		}
	}
	*r = List(w.Idx...)
	return nil
}

// GobEncode implements gob.GobEncoder.
func (s Slice) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (s *Slice) GobDecode(data []byte) error {
	var rs []Range
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rs); err != nil {
		return err
	}
	s.r = rs
	return nil
}
