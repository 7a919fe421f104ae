package array

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Elem constrains the element types a distributed array may hold. Each
// has a fixed-width little-endian on-stream encoding, which is what makes
// checkpoint files portable across machines and distributions. The
// constraint lists exact types (not ~approximations) because the codec
// moves values through interface assertions.
type Elem interface {
	float64 | float32 | int64 | int32 | uint8
}

// ElemSize returns the encoded size in bytes of T.
func ElemSize[T Elem]() int {
	var z T
	switch any(z).(type) {
	case float64, int64:
		return 8
	case float32, int32:
		return 4
	default:
		return 1
	}
}

// ElemKind returns a stable name for T, recorded in checkpoint metadata
// so a restart can type-check the file against the declared array.
func ElemKind[T Elem]() string {
	var z T
	switch any(z).(type) {
	case float64:
		return "float64"
	case float32:
		return "float32"
	case int64:
		return "int64"
	case int32:
		return "int32"
	default:
		return "uint8"
	}
}

// putElem encodes v at buf (little-endian).
func putElem[T Elem](buf []byte, v T) {
	switch x := any(v).(type) {
	case float64:
		binary.LittleEndian.PutUint64(buf, math.Float64bits(x))
	case float32:
		binary.LittleEndian.PutUint32(buf, math.Float32bits(x))
	case int64:
		binary.LittleEndian.PutUint64(buf, uint64(x))
	case int32:
		binary.LittleEndian.PutUint32(buf, uint32(x))
	case uint8:
		buf[0] = x
	}
}

// getElem decodes an element from buf.
func getElem[T Elem](buf []byte) T {
	var z T
	switch any(z).(type) {
	case float64:
		return any(math.Float64frombits(binary.LittleEndian.Uint64(buf))).(T)
	case float32:
		return any(math.Float32frombits(binary.LittleEndian.Uint32(buf))).(T)
	case int64:
		return any(int64(binary.LittleEndian.Uint64(buf))).(T)
	case int32:
		return any(int32(binary.LittleEndian.Uint32(buf))).(T)
	default:
		return any(buf[0]).(T)
	}
}

// EncodeElems packs a value slice into its wire form.
func EncodeElems[T Elem](vs []T) []byte { return AppendElems(nil, vs) }

// AppendElems appends the wire form of vs to dst.
func AppendElems[T Elem](dst []byte, vs []T) []byte {
	if hostLE {
		return append(dst, rawBytes(vs)...)
	}
	n := len(dst)
	dst = append(dst, make([]byte, len(vs)*ElemSize[T]())...)
	encodeRun(any(vs), dst[n:], 0, len(vs), 1)
	return dst
}

// DecodeElems unpacks a wire buffer into values.
func DecodeElems[T Elem](buf []byte) []T {
	out := make([]T, len(buf)/ElemSize[T]())
	DecodeElemsInto(out, buf)
	return out
}

// DecodeElemsInto unpacks the first len(dst) values of a wire buffer
// into dst.
func DecodeElemsInto[T Elem](dst []T, buf []byte) {
	if hostLE {
		copy(rawBytes(dst), buf)
		return
	}
	decodeRun(any(dst), buf, 0, len(dst), 1)
}

// hostLE reports whether this host stores multi-byte values little-endian,
// probed once at init: a stride-1 run of such a host *is* its wire form.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// rawBytes returns the memory of s as bytes. It is the package's only use
// of unsafe; wireView decides when those bytes are the wire encoding.
func rawBytes[T Elem](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(*new(T))))
}

// wireView returns the memory of s[base:base+n] (s a boxed Elem slice) and
// whether it is that run's wire form: always for uint8, on a little-endian
// host for the wider types. An unsupported type yields no view; the codec's
// own switch reports it.
func wireView(s any, base, n int) ([]byte, bool) {
	switch s := s.(type) {
	case []float64:
		return rawBytes(s[base : base+n]), hostLE
	case []float32:
		return rawBytes(s[base : base+n]), hostLE
	case []int64:
		return rawBytes(s[base : base+n]), hostLE
	case []int32:
		return rawBytes(s[base : base+n]), hostLE
	case []uint8:
		return s[base : base+n], true
	}
	return nil, false
}

// encodeRun is the bulk encoder behind the pack fast path: it encodes n
// elements of the boxed slice src (one of the Elem slice types), starting
// at index base and stepping by stride, into dst little-endian. src is
// passed pre-boxed so hot loops pay no per-run interface conversion.
// stride 1 is the overwhelmingly common case (column-major packing of a
// column-major section): wherever the run's memory is its wire form
// (wireView) it is one byte copy. The per-element loops are the strided
// arms (row-major over column-major storage) and the big-endian host's
// path, with the type switch run once per run, not once per element.
func encodeRun(src any, dst []byte, base, n, stride int) {
	if stride == 1 {
		if v, ok := wireView(src, base, n); ok {
			copy(dst[:len(v)], v)
			return
		}
	}
	switch s := src.(type) {
	case []float64:
		for i, j := 0, base; i < n; i, j = i+1, j+stride {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(s[j]))
		}
	case []float32:
		for i, j := 0, base; i < n; i, j = i+1, j+stride {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(s[j]))
		}
	case []int64:
		for i, j := 0, base; i < n; i, j = i+1, j+stride {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(s[j]))
		}
	case []int32:
		for i, j := 0, base; i < n; i, j = i+1, j+stride {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(s[j]))
		}
	case []uint8:
		for i, j := 0, base; i < n; i, j = i+1, j+stride {
			dst[i] = s[j]
		}
	default:
		panic(fmt.Sprintf("array: encodeRun of unsupported type %T", src))
	}
}

// decodeRun is the inverse of encodeRun: it decodes n little-endian
// elements from src into the boxed slice dst, starting at index base and
// stepping by stride.
func decodeRun(dst any, src []byte, base, n, stride int) {
	if stride == 1 {
		if v, ok := wireView(dst, base, n); ok {
			copy(v, src[:len(v)])
			return
		}
	}
	switch d := dst.(type) {
	case []float64:
		for i, j := 0, base; i < n; i, j = i+1, j+stride {
			d[j] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case []float32:
		for i, j := 0, base; i < n; i, j = i+1, j+stride {
			d[j] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
	case []int64:
		for i, j := 0, base; i < n; i, j = i+1, j+stride {
			d[j] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case []int32:
		for i, j := 0, base; i < n; i, j = i+1, j+stride {
			d[j] = int32(binary.LittleEndian.Uint32(src[4*i:]))
		}
	case []uint8:
		for i, j := 0, base; i < n; i, j = i+1, j+stride {
			d[j] = src[i]
		}
	default:
		panic(fmt.Sprintf("array: decodeRun of unsupported type %T", dst))
	}
}
