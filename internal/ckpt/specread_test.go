package ckpt_test

// An independent reader of a committed DRMS generation: the format's
// executable specification. It is written from DESIGN.md §3g's field
// tables (metadata version 4, the PieceLoc record, the piece files and
// their codecs) with the standard library alone and imports no package
// of this module, so a bug the writer and the product reader share — a
// wrong FileOff, a swapped piece order, a misnamed piece file — yields a
// stream that differs from the array's (specread_streams_test.go).

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"strings"
)

// specMeta is a metadata version 4 record, field by field.
type specMeta struct {
	mode                 string
	tasks, step, ctxSize int64
	sop                  string
	arrays               []specArray
	segBytes             []int64
	segCRC               []uint64
	segWhere             int64
	arrayCRC             []uint64
	planSigs             []string
	chainLen             int64
	deps                 []int64
	locs                 [][]specLoc // per array, sorted by piece
	sections             [][]specSection
}

type specArray struct {
	name, kind string
	elems      int64 // the global shape's element count
	bytes      int64 // the stream's
}

// specLoc is a PieceLoc: a PieceSum (index, offset, logical CRC and
// bytes), then where the piece is stored.
type specLoc struct {
	index, off int64
	crc        uint64
	bytes      int64
	gen, task  int64 // generation holding the piece file (−1: an unrotated prefix), writer task
	fileOff    int64
	fileBytes  int64
	codec      int64 // 0 raw, 1 DEFLATE
	storedCRC  uint64
	where      int64 // 0 pfs, 1 peer memory only
}

type specSection struct {
	piece, task, bytes int64
	crc                uint64
}

// kindBytes is each element kind's little-endian width on the stream.
var kindBytes = map[string]int64{"float64": 8, "int64": 8, "float32": 4, "int32": 4, "uint8": 1}

// ecma is CRC-64/ECMA, the checksum of every stored byte range.
var ecma = crc64.MakeTable(crc64.ECMA)

// specReader reads a record's fields in order; the first failure sticks
// and empties the input.
type specReader struct {
	b   []byte
	err error
}

func (r *specReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

func (r *specReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint at %d bytes left", len(r.b))
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varint is a zigzag varint.
func (r *specReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint at %d bytes left", len(r.b))
		return 0
	}
	r.b = r.b[n:]
	return v
}

// str is a uvarint length and that many bytes.
func (r *specReader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("a %d-byte string at %d bytes left", n, len(r.b))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// specList reads a table: a uvarint count, then each element, every one
// at least a byte long.
func specList[T any](r *specReader, each func() T) []T {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("a %d-entry table at %d bytes left", n, len(r.b))
		return nil
	}
	var out []T
	for range n {
		out = append(out, each())
	}
	return out
}

// axis reads one axis of a global shape and returns its element count:
// an index list, or an empty list and a regular range's lo, hi, step.
func (r *specReader) axis() int64 {
	if idx := specList(r, r.varint); len(idx) > 0 {
		return int64(len(idx))
	}
	lo, hi, step := r.varint(), r.varint(), r.varint()
	switch {
	case step <= 0:
		r.fail("axis %d:%d:%d", lo, hi, step)
	case hi >= lo:
		return (hi-lo)/step + 1
	}
	return 0
}

// readSpecMeta decodes a metadata version 4 record.
func readSpecMeta(b []byte) (specMeta, error) {
	const magic = "DRMSmeta"
	if !bytes.HasPrefix(b, []byte(magic)) {
		return specMeta{}, fmt.Errorf("no %s magic", magic)
	}
	r := &specReader{b: b[len(magic):]}
	if v := r.uvarint(); v != 4 {
		r.fail("metadata version %d, want 4", v)
	}
	var m specMeta
	m.mode = r.str()
	m.tasks = r.varint()
	m.sop = r.str()
	m.step, m.ctxSize = r.varint(), r.varint()
	m.arrays = specList(r, func() specArray {
		a := specArray{name: r.str(), kind: r.str(), elems: 1}
		for _, n := range specList(r, r.axis) {
			a.elems *= n
		}
		a.bytes = r.varint()
		return a
	})
	m.segBytes = specList(r, r.varint)
	m.segCRC = specList(r, r.uvarint)
	m.segWhere = r.varint()
	m.arrayCRC = specList(r, r.uvarint)
	m.planSigs = specList(r, r.str)
	m.chainLen = r.varint()
	m.deps = specList(r, r.varint)
	m.locs = specList(r, func() []specLoc {
		return specList(r, func() specLoc {
			return specLoc{index: r.varint(), off: r.varint(), crc: r.uvarint(), bytes: r.varint(),
				gen: r.varint(), task: r.varint(), fileOff: r.varint(), fileBytes: r.varint(),
				codec: r.varint(), storedCRC: r.uvarint(), where: r.varint()}
		})
	})
	m.sections = specList(r, func() []specSection {
		return specList(r, func() specSection {
			return specSection{piece: r.varint(), task: r.varint(), bytes: r.varint(), crc: r.uvarint()}
		})
	})
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d bytes past the record", len(r.b))
	}
	return m, r.err
}

// specStream rebuilds array i's stream of the generation under prefix
// ("<base>.g<k>") from its location table. Each piece is read from its
// writer task's piece file "<owner>.arr.<name>.p<task>", where owner is
// "<base>.g<gen>" (the prefix itself for gen −1), at [fileOff,
// fileOff+fileBytes); those bytes must hash to storedCRC, decode by the
// codec to bytes logical bytes hashing to crc, and land at off. The
// pieces must tile the stream in index order, and the stream must be
// elems × the kind's width long and hash to the array's CRC.
func specStream(read func(name string) ([]byte, error), prefix string, m *specMeta, i int) ([]byte, error) {
	a := m.arrays[i]
	if w, ok := kindBytes[a.kind]; !ok || a.elems*w != a.bytes {
		return nil, fmt.Errorf("array %q: %d bytes of %d %s elements", a.name, a.bytes, a.elems, a.kind)
	}
	base := prefix[:max(strings.LastIndex(prefix, ".g"), 0)]
	out := make([]byte, 0, a.bytes)
	for j, l := range m.locs[i] {
		if l.index != int64(j) || l.off != int64(len(out)) || l.where != 0 {
			return nil, fmt.Errorf("array %q: piece %d (entry %d) at offset %d in tier %d; the stream is at %d",
				a.name, l.index, j, l.off, l.where, len(out))
		}
		owner := prefix
		if l.gen >= 0 {
			owner = fmt.Sprintf("%s.g%d", base, l.gen)
		}
		file, err := read(fmt.Sprintf("%s.arr.%s.p%d", owner, a.name, l.task))
		if err != nil {
			return nil, err
		}
		if l.fileOff < 0 || l.fileBytes < 0 || l.fileOff+l.fileBytes > int64(len(file)) {
			return nil, fmt.Errorf("array %q piece %d: extent %d+%d of a %d-byte file", a.name, l.index, l.fileOff, l.fileBytes, len(file))
		}
		stored := file[l.fileOff : l.fileOff+l.fileBytes]
		if crc64.Checksum(stored, ecma) != l.storedCRC {
			return nil, fmt.Errorf("array %q piece %d: stored bytes fail their CRC", a.name, l.index)
		}
		piece := stored
		switch l.codec {
		case 0:
		case 1:
			if piece, err = io.ReadAll(flate.NewReader(bytes.NewReader(stored))); err != nil {
				return nil, fmt.Errorf("array %q piece %d: %w", a.name, l.index, err)
			}
		default:
			return nil, fmt.Errorf("array %q piece %d: codec %d", a.name, l.index, l.codec)
		}
		if int64(len(piece)) != l.bytes || crc64.Checksum(piece, ecma) != l.crc {
			return nil, fmt.Errorf("array %q piece %d: %d logical bytes of %d, or their CRC, differ", a.name, l.index, len(piece), l.bytes)
		}
		out = append(out, piece...)
	}
	if int64(len(out)) != a.bytes || crc64.Checksum(out, ecma) != m.arrayCRC[i] {
		return nil, fmt.Errorf("array %q: %d stream bytes of %d, or their CRC, differ", a.name, len(out), a.bytes)
	}
	return out, nil
}
