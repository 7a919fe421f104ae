package seg

import (
	"bytes"
	"encoding/gob"
	"slices"
	"strings"
	"testing"

	"drms/internal/frame"
)

func TestRegisterEncodeDecodeRoundTrip(t *testing.T) {
	s := New()
	iter := 42
	dt := 0.0625
	name := "bt.classA"
	flag, blob, z, n := true, []byte{1, 0, 2}, complex(1, -2), uint8(7)
	s.Register("iter", &iter)
	s.Register("dt", &dt)
	s.Register("name", &name)
	s.Register("flag", &flag)
	s.Register("blob", &blob)
	s.Register("z", &z)
	s.Register("n", &n)
	s.Ctx = Context{SOP: "mainloop", Step: 42, Tasks: 8}
	s.Model = SizeModel{LocalSectionBytes: 100, SystemBytes: 200, PrivateBytes: 300}

	payload, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh segment (a restarted task) registers the same layout with
	// zero values, then decodes.
	r := New()
	var iter2 int
	var dt2 float64
	var name2 string
	var (
		flag2 bool
		blob2 []byte
		z2    complex128
		n2    uint8
	)
	r.Register("iter", &iter2)
	r.Register("dt", &dt2)
	r.Register("name", &name2)
	r.Register("flag", &flag2)
	r.Register("blob", &blob2)
	r.Register("z", &z2)
	r.Register("n", &n2)
	if err := r.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if iter2 != 42 || dt2 != 0.0625 || name2 != "bt.classA" {
		t.Fatalf("restored %d %v %q", iter2, dt2, name2)
	}
	if !flag2 || !bytes.Equal(blob2, blob) || z2 != z || n2 != 7 {
		t.Fatalf("restored %v %v %v %d", flag2, blob2, z2, n2)
	}
	if r.Ctx != (Context{SOP: "mainloop", Step: 42, Tasks: 8}) {
		t.Fatalf("ctx = %+v", r.Ctx)
	}
	if r.Model.Total() != 600 {
		t.Fatalf("model total = %d", r.Model.Total())
	}
}

// stamp is a number that gob encodes through its own method, under a
// type id the process allocates.
type stamp int

func (s stamp) MarshalText() ([]byte, error) { return []byte("stamp"), nil }

// TestRefusesCompositeVariables: gob numbers a composite type, or one
// that encodes itself, in the order the process first encodes it, so its
// bytes depend on the process's history. Encode and Decode refuse such a
// variable, naming it and its type; a named scalar is a scalar.
func TestRefusesCompositeVariables(t *testing.T) {
	type celsius float64
	var iter int
	ok := New()
	ok.Register("iter", &iter)
	payload, err := ok.Encode()
	if err != nil {
		t.Fatal(err)
	}
	temp := celsius(21.5)
	named := New()
	named.Register("temp", &temp)
	if _, err := named.Encode(); err != nil {
		t.Fatalf("a named float: %v", err)
	}
	for _, c := range []struct {
		typ string
		ptr any
	}{
		{"[]float64", &[]float64{1, 2}},
		{"[]bool", &[]bool{true}},
		{"map[string]int", &map[string]int{"a": 1}},
		{"struct { N int }", &struct{ N int }{1}},
		{"[2]uint8", &[2]byte{1, 2}},
		{"seg.stamp", new(stamp)},
		{"seg.Context", &Context{}},
	} {
		s := New()
		s.Register("iter", c.ptr)
		_, encErr := s.Encode()
		decErr := s.Decode(payload)
		for _, err := range []error{encErr, decErr} {
			if err == nil || !strings.Contains(err.Error(), `variable "iter" is a `+c.typ+";") {
				t.Errorf("%s: %v", c.typ, err)
			}
		}
	}
}

func TestDecodeRejectsLayoutMismatch(t *testing.T) {
	s := New()
	x := 1
	s.Register("x", &x)
	payload, _ := s.Encode()

	missing := New()
	if err := missing.Decode(payload); err == nil {
		t.Fatal("decode into segment with no registered vars succeeded")
	}

	extra := New()
	var x2, y int
	extra.Register("x", &x2)
	extra.Register("y", &y)
	if err := extra.Decode(payload); err == nil {
		t.Fatal("decode with extra registered var succeeded")
	}

	renamed := New()
	var z int
	renamed.Register("z", &z)
	if err := renamed.Decode(payload); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("renamed var error = %v", err)
	}
}

func TestReRegisterReplacesPointer(t *testing.T) {
	s := New()
	a := 1
	s.Register("v", &a)
	b := 2
	s.Register("v", &b)
	if n := len(s.vars); n != 1 {
		t.Fatalf("%d names after re-register", n)
	}
	payload, _ := s.Encode()
	var out int
	r := New()
	r.Register("v", &out)
	r.Decode(payload)
	if out != 2 {
		t.Fatalf("captured %d, want the re-registered pointer's value 2", out)
	}
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil registration accepted")
		}
	}()
	New().Register("x", nil)
}

func TestFileSizePadsToModel(t *testing.T) {
	s := New()
	s.Model = SizeModel{PrivateBytes: 1 << 20}
	if got := s.FileSize(100); got != 1<<20 {
		t.Fatalf("FileSize = %d, want model total", got)
	}
	// Payload larger than model: file grows to fit.
	if got := s.FileSize(2 << 20); got != 2<<20+16 {
		t.Fatalf("FileSize = %d", got)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	build := func() *Segment {
		s := New()
		i, f := 7, 2.5
		// Registration order differs between the two builds; the payload
		// must not.
		s.Register("b", &f)
		s.Register("a", &i)
		return s
	}
	p1, _ := build().Encode()
	s2 := New()
	i, f := 7, 2.5
	s2.Register("a", &i)
	s2.Register("b", &f)
	p2, _ := s2.Encode()
	if string(p1) != string(p2) {
		t.Fatal("payload depends on registration order")
	}
}

func TestPaperSystemBytes(t *testing.T) {
	// Table 4's constant: keep the literal honest.
	if PaperSystemBytes != 34972228 {
		t.Fatal("PaperSystemBytes drifted from Table 4")
	}
}

// gobPayload is the payload an earlier build wrote for s: the context,
// the size model, the sorted names and their blobs as one gob record.
func gobPayload(t testing.TB, s *Segment) []byte {
	t.Helper()
	b, err := s.Encode()
	var p Payload
	if err == nil {
		p, err = decodePayload(b)
	}
	var buf bytes.Buffer
	if err == nil {
		err = gob.NewEncoder(&buf).Encode(struct {
			Ctx   Context
			Model SizeModel
			Names []string
			Blobs [][]byte
		}{p.Ctx, p.Model, p.Names, p.Blobs})
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sampleSegment() *Segment {
	s := New()
	iter, dt := 42, 0.0625
	s.Register("iter", &iter)
	s.Register("dt", &dt)
	s.Ctx = Context{SOP: "mainloop", Step: 42, Tasks: 8}
	s.Model = SizeModel{LocalSectionBytes: 100, SystemBytes: PaperSystemBytes, PrivateBytes: 300}
	return s
}

// decodePayload reads a payload as Decode does, accepting only the
// encoding of what it decodes to.
func decodePayload(b []byte) (p Payload, err error) {
	err = frame.Decode(b, p.walk)
	return p, err
}

// TestPayloadIsAFrame: a payload opens with its magic and decodes to the
// context, model and sorted variables it was encoded from. Decode refuses
// a trailing byte, names out of order or repeated, a blob too few or too
// many, and the gob record an earlier build wrote, which Legacy reports.
func TestPayloadIsAFrame(t *testing.T) {
	s := sampleSegment()
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if Legacy(b) || !bytes.HasPrefix(b, []byte("DRMSseg\x01")) {
		t.Fatalf("payload opens %q", b[:min(len(b), 8)])
	}
	p, err := decodePayload(b)
	if err != nil || p.Ctx != s.Ctx || p.Model != s.Model || !slices.Equal(p.Names, []string{"dt", "iter"}) || len(p.Blobs) != 2 {
		t.Fatalf("decoded %+v, %v", p, err)
	}
	old := gobPayload(t, s)
	if !Legacy(old) {
		t.Fatal("a gob-era payload is not reported legacy")
	}
	dt, it := p.Blobs[0], p.Blobs[1]
	for name, bad := range map[string][]byte{
		"a trailing byte":  append(slices.Clone(b), 0),
		"unsorted names":   (&Payload{Names: []string{"iter", "dt"}, Blobs: [][]byte{it, dt}}).Encode(),
		"a repeated name":  (&Payload{Names: []string{"dt", "dt"}, Blobs: [][]byte{dt, dt}}).Encode(),
		"a blob too few":   (&Payload{Names: []string{"dt", "iter"}, Blobs: [][]byte{dt}}).Encode(),
		"a blob too many":  (&Payload{Names: []string{"dt", "iter"}, Blobs: [][]byte{dt, it, it}}).Encode(),
		"a gob-era record": old,
	} {
		if err := sampleSegment().Decode(bad); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// FuzzSegmentDecode feeds the payload decoder arbitrary bytes: it never
// panics, and what it accepts re-encodes to the same bytes. Segment.Decode
// into registered variables never panics either. Seeded with a real
// payload, an empty segment's and a gob-era one.
func FuzzSegmentDecode(f *testing.F) {
	real, err := sampleSegment().Encode()
	if err != nil {
		f.Fatal(err)
	}
	empty, err := New().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(empty)
	f.Add(gobPayload(f, sampleSegment()))
	f.Fuzz(func(t *testing.T, b []byte) {
		var iter int
		var dt float64
		s := New()
		s.Register("iter", &iter)
		s.Register("dt", &dt)
		_ = s.Decode(b)
		p, err := decodePayload(b)
		if err != nil {
			return
		}
		if Legacy(b) {
			t.Fatal("a legacy payload decoded")
		}
		if again := p.Encode(); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, which re-encodes to %x", b, again)
		}
	})
}
