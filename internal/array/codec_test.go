package array

import (
	"bytes"
	"math"
	"testing"
)

// codecRunsCase holds encodeRun and decodeRun to the per-element codec
// (putElem/getElem, which share no loop with them) on vals: every base and
// length, stride 1 and strides that skip, compared as bytes so that NaN
// payloads and the sign of zero count. Bytes past the run must stay as
// they were, in both directions. AppendElems keeps what it appends to,
// and DecodeElemsInto fills exactly its destination.
func codecRunsCase[T Elem](t *testing.T, vals []T) {
	t.Helper()
	es := ElemSize[T]()
	whole := []byte{0xA5}
	for _, v := range vals {
		b := make([]byte, es)
		putElem(b, v)
		whole = append(whole, b...)
	}
	if got := AppendElems([]byte{0xA5}, vals); !bytes.Equal(got, whole) {
		t.Fatalf("%T AppendElems:\n got %v\nwant %v", vals, got, whole)
	}
	back := make([]T, len(vals))
	DecodeElemsInto(back[:len(vals)-1], whole[1:])
	if got := AppendElems(nil, back[:len(vals)-1]); !bytes.Equal(got, whole[1:len(whole)-es]) || back[len(vals)-1] != 0 {
		t.Fatalf("%T DecodeElemsInto: got %v", vals, back)
	}
	for stride := 1; stride <= 3; stride++ {
		for base := 0; base < len(vals); base++ {
			for n := 0; base+(n-1)*stride < len(vals); n++ {
				want := poisoned((n + 1) * es)
				for i := 0; i < n; i++ {
					putElem(want[i*es:], vals[base+i*stride])
				}
				got := poisoned((n + 1) * es)
				encodeRun(any(vals), got, base, n, stride)
				if !bytes.Equal(got, want) {
					t.Fatalf("%T encodeRun base %d n %d stride %d:\n got %v\nwant %v", vals, base, n, stride, got, want)
				}

				var filler T = 7
				back, ref := make([]T, len(vals)), make([]T, len(vals))
				for i := range back {
					back[i], ref[i] = filler, filler
				}
				for i := 0; i < n; i++ {
					ref[base+i*stride] = getElem[T](want[i*es:])
				}
				decodeRun(any(back), want, base, n, stride)
				if !bytes.Equal(EncodeElems(back), EncodeElems(ref)) {
					t.Fatalf("%T decodeRun base %d n %d stride %d:\n got %v\nwant %v", vals, base, n, stride, back, ref)
				}
			}
		}
	}
}

// TestCodecBulkMatchesElementLoop runs the codec on the values a byte copy
// and a per-element conversion could disagree on, for all five element
// types — once as the host runs it (on a little-endian host stride-1 runs
// are byte copies of the slice's memory) and once with the endianness
// probe forced false, so the per-element loops stay covered at stride 1
// whatever the host.
func TestCodecBulkMatchesElementLoop(t *testing.T) {
	defer func(le bool) { hostLE = le }(hostLE)
	for _, le := range []bool{hostLE, false} {
		hostLE = le
		codecRunsCase(t, []float64{0, math.Copysign(0, -1), 1.5, -math.MaxFloat64, math.SmallestNonzeroFloat64,
			math.Inf(-1), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001), math.Pi})
		codecRunsCase(t, []float32{0, float32(math.Copysign(0, -1)), -2.5, math.MaxFloat32, math.SmallestNonzeroFloat32,
			float32(math.Inf(1)), math.Float32frombits(0x7fc00123), math.Float32frombits(0xff800001), 1e-20})
		codecRunsCase(t, []int64{0, -1, math.MinInt64, math.MaxInt64, 0x0102030405060708, -0x0102030405060708, 42})
		codecRunsCase(t, []int32{0, -1, math.MinInt32, math.MaxInt32, 0x01020304, -0x01020304, 42})
		codecRunsCase(t, []uint8{0, 255, 1, 128, 127, 7, 200})
	}
	if v, ok := wireView(any([]uint8{1, 2, 3}), 1, 2); !ok || !bytes.Equal(v, []byte{2, 3}) {
		t.Fatalf("uint8 is its own wire form on any host: view %v, %v", v, ok)
	}
	if _, ok := wireView(any([]float64{1}), 0, 1); ok {
		t.Fatal("with the probe false a float64 run must take the element loop")
	}
	if v, ok := wireView(any([]int32(nil)), 0, 0); len(v) != 0 {
		t.Fatalf("empty run of a nil slice: view %v, %v", v, ok)
	}
	if _, ok := wireView(any([]uint16{1}), 0, 1); ok {
		t.Fatal("an unsupported slice type has no wire view")
	}
}
