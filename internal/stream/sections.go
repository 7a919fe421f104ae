package stream

import (
	"drms/internal/array"
	"drms/internal/crc"
	"drms/internal/rangeset"
)

// Owner-side piece fingerprints. A streamed piece's bytes are the
// concatenation, in stream order, of the contributions of the tasks
// whose assigned sections intersect it. Each task can therefore
// fingerprint its own contribution to every piece without any
// communication: pack the intersection of the piece with the assigned
// section (the same plan, the same order the write would use) and hash
// it. Two checkpoints of the same plan produce the same contribution
// extents, so a piece's content is unchanged between them if and only
// if every task's (Bytes, CRC) pair for it is unchanged and no
// contribution appeared or disappeared — any content change lives in
// some owner's contribution, and any redistribution changes at least
// one task's extent. The chained checkpoint layer diffs these sums to
// decide which pieces a delta generation must rewrite, skipping the
// redistribution of clean pieces entirely.

// SectionSum fingerprints one task's contribution to one piece of a
// streaming plan: the packed intersection of the piece with the task's
// assigned section, in the plan's element order.
type SectionSum struct {
	Piece int    // piece index in the full write plan
	Task  int    // contributing task
	Bytes int64  // contribution length in bytes
	CRC   uint64 // CRC-64/ECMA of the packed contribution
}

// SectionSums computes this task's contribution fingerprints for every
// piece of the plan Write would use for section x. Purely local — no
// communication, no file I/O — and cheap next to a write: one pack and
// one CRC pass over the task's assigned elements of x.
func SectionSums[T array.Elem](a *array.Array[T], x rangeset.Slice, o Options) ([]SectionSum, error) {
	comm, err := commOf(a, x)
	if err != nil {
		return nil, err
	}
	es := array.ElemSize[T]()
	sp, err := planFor(comm, a.Global(), x, es, o)
	if err != nil {
		return nil, err
	}
	me := comm.Rank()
	mine := a.Assigned()
	var buf []byte
	defer func() { recycleBuf(buf) }()
	var sums []SectionSum
	for i, p := range sp.pieces {
		s := p.Intersect(mine)
		if s.Empty() {
			continue
		}
		buf = sizeBuf(&buf, s.Size()*es)
		if err := a.PackSectionInto(s, o.Order, buf); err != nil {
			return nil, err
		}
		sums = append(sums, SectionSum{Piece: i, Task: me,
			Bytes: int64(len(buf)), CRC: crc.Checksum(buf)})
	}
	return sums, nil
}
