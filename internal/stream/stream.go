// Package stream implements DRMS parallel array-section streaming (§3.2
// of the paper): moving the elements of a section of a distributed array
// in or out of an application in a distribution-independent linear order.
//
// The output stream of a section depends only on the section and the
// chosen element order (FORTRAN column-major or C row-major), never on
// how the array is distributed — that property is what lets an
// application checkpointed on t1 tasks restart on t2.
//
// Write implements the paper's two algorithms: the section is recursively
// bisected into ~1 MB pieces whose concatenated linearizations equal the
// section's linearization (partition, Fig. 5a); then rounds of P pieces
// are first redistributed so that piece i+p lands wholly on task p and
// written by that task at the piece's exact byte offset in the stream
// (parstream, Fig. 5b — the two-phase access strategy). The paper's
// auxiliary array A′ with its one-piece-per-writer canonical distribution
// is kept as a layout and dropped as a container: the canonical
// distribution of a round is what the exchange is planned against, but the
// redistributed piece lands directly in the writer's I/O buffer, in wire
// form (array.PackPieces; array.UnpackPieces on the way back). Parallel
// streaming needs seek capability on the target; with Writers=1 the
// stream degenerates to pure appends, suitable for sequential channels.
package stream

import (
	"fmt"
	"sync"
	"time"

	"drms/internal/array"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
)

// DefaultPieceBytes is the target size of one streamed piece. The paper
// chooses pieces of approximately 1 MB: large enough to amortize
// per-operation overhead, small enough to bound intermediate buffer
// memory.
const DefaultPieceBytes = 1 << 20

// Options control a streaming operation.
type Options struct {
	// Writers is P, the number of tasks performing file I/O. 0 means all
	// tasks; values above the task count are clamped. Writers=1 is serial
	// streaming (append-only, no seek needed).
	Writers int
	// Order is the element linearization convention. The zero value is
	// FORTRAN-style column-major, matching the paper's presentation.
	Order rangeset.Order
	// PieceBytes is the target piece size (DefaultPieceBytes if 0).
	PieceBytes int
	// Pieces, if non-nil, restricts the operation to the listed piece
	// indices of the full plan (ascending, in range). The piece partition
	// and byte offsets are those of the unfiltered plan — hooks still see
	// original indices and stream offsets — but rounds are built over
	// only the listed pieces, so unlisted pieces cost neither
	// redistribution nor I/O. An empty (non-nil) list streams nothing at
	// all. The chained checkpoint layer passes the dirty piece set of a
	// delta generation here on Write (the bytes of unlisted pieces are
	// expected to already exist — back-pointers), and the needed piece
	// set of a partial restore here on Read (array elements outside the
	// listed pieces' sections are untouched beyond harmless bit-identical
	// boundary overwrites).
	Pieces []int
	// PieceHook, if non-nil, is invoked by the writing (or reading) task
	// with each piece's index, stream-relative byte offset, and contents,
	// before the buffer is reused. The checkpoint layer uses it to
	// compute integrity checksums without a second pass over the data.
	PieceHook func(index int, offset int64, data []byte)
	// EncodePiece, if non-nil, transforms a written piece and chooses
	// where its bytes land (compressed chained checkpoints). It runs
	// synchronously on the writing task after PieceHook and
	// before the piece's file write is issued — so the encode of piece
	// r+1 overlaps the still-in-flight asynchronous file write of piece
	// r, extending the two-phase pipeline by one stage. At most one
	// write is in flight at a time; the returned Data (which may alias
	// the input or an encoder-owned buffer) must therefore stay valid
	// until the next-but-one EncodePiece call — double buffering on the
	// encoder side satisfies this. Ignored by Read.
	EncodePiece func(index int, offset int64, data []byte) (Encoded, error)
	// FetchPiece, if non-nil, replaces Read's file access: fill dst with
	// the stream bytes [offset, offset+len(dst)). A reader may have
	// replanned with a different piece decomposition than the writer, so
	// implementations must serve arbitrary extents, and — because Read
	// prefetches the next piece concurrently — must be safe for
	// concurrent use. Ignored by Write.
	FetchPiece func(index int, offset int64, dst []byte) error
	// PieceOwners, if non-nil, is told each full-plan piece's majority
	// owner before streaming begins: owners[idx] is the rank holding the
	// largest share of piece idx's section under the array's current
	// distribution. The checkpoint layer uses it to place in-memory
	// replicas on the ranks that will need the bytes after an
	// equal-layout restart. Every task receives the same slice contents
	// (the plan and the distribution are collective state). Ignored by
	// Read.
	PieceOwners func(owners []int)
}

// Encoded is EncodePiece's answer: the bytes to store and where. With
// File == "" the piece is written to the stream's own file at its
// natural offset and Data must keep the piece's length (in-place
// transform); with File set, Data (any length) is written to that file
// at Off — the chained-checkpoint layer uses this to append compressed
// pieces to per-task piece files.
type Encoded struct {
	Data []byte
	File string
	Off  int64
	// Skip elides the file write entirely: the encoder has placed the
	// piece's bytes somewhere the stream layer does not manage (the
	// in-memory checkpoint tier). The piece still counts as streamed —
	// it was redistributed, hooked, and encoded — and contributes
	// nothing to StoredBytes.
	Skip bool
}

// Stats reports what a streaming operation moved.
type Stats struct {
	// StreamBytes is the size of the streamed section in bytes.
	StreamBytes int64
	// NetBytes is the redistribution traffic this task sent to other
	// tasks during the two-phase exchange.
	NetBytes int64
	// Pieces is the number of pieces the section was partitioned into.
	Pieces int
	// StoredBytes counts the bytes this task actually wrote to storage:
	// piece bytes after EncodePiece (compression). Equal to the written
	// piece bytes when no encoder is set; zero for reads.
	StoredBytes int64
}

func (o Options) pieceBytes() int {
	if o.PieceBytes <= 0 {
		return DefaultPieceBytes
	}
	return o.PieceBytes
}

func (o Options) writers(tasks int) int {
	if o.Writers <= 0 || o.Writers > tasks {
		return tasks
	}
	return o.Writers
}

// Write streams section x of array a to the named file on fs. It is a
// collective operation: every task of a's communicator must call it with
// identical arguments. The resulting file bytes depend only on x, the
// element type and the order — not on a's distribution or on Writers.
//
// The piece partition, byte offsets, and per-round canonical
// distributions come from the epoch's plan (see plan.go): the first stream
// of a configuration builds them, every later checkpoint of the same run
// replays them, and — because a plan's rounds carry their exchange plans —
// the per-round piece exchanges replay their schedules too.
func Write[T array.Elem](a *array.Array[T], x rangeset.Slice, fs *pfs.System, name string, o Options) (st Stats, err error) {
	defer observeStream(streamWrites, streamWriteSeconds, time.Now(), &st, &err)
	comm, err := commOf(a, x)
	if err != nil {
		return Stats{}, err
	}
	es := array.ElemSize[T]()
	p := o.writers(comm.Size())
	sp, err := planFor(comm, a.Global(), x, es, o)
	if err != nil {
		return Stats{}, err
	}
	st = Stats{StreamBytes: sp.total, Pieces: len(sp.pieces)}
	me := comm.Rank()

	if o.PieceOwners != nil {
		owners := make([]int, len(sp.pieces))
		for i, pc := range sp.pieces {
			best, bestN := 0, -1
			for r := 0; r < comm.Size(); r++ {
				if n := pc.Intersect(a.Dist().Assigned(r)).Size(); n > bestN {
					best, bestN = r, n
				}
			}
			owners[i] = best
		}
		o.PieceOwners(owners)
	}

	// A filtered write (delta checkpoint) rounds over a subset of the
	// plan's pieces; indices and offsets reported to the hooks stay those
	// of the full plan, so the stream's byte layout is identical across
	// filtered and unfiltered generations.
	run, orig := sp, func(i int) int { return i }
	if o.Pieces != nil {
		if run, err = sp.filtered(comm.Size(), o.Pieces, p); err != nil {
			return st, err
		}
		orig = func(i int) int { return o.Pieces[i] }
	}

	// Round state is allocated once and recycled: two piece buffers, and
	// at most one write in flight, so the file I/O of round r overlaps the
	// exchange of round r+1 — the overlap the two-phase access strategy is
	// after.
	var (
		bufs [2][]byte
		flip int
		wg   sync.WaitGroup
		werr error
	)
	defer func() { recycleBuf(bufs[0]); recycleBuf(bufs[1]) }()
	defer wg.Wait() // never leak an in-flight write, even on error returns; runs before the recycle above
	join := func() error {
		t0 := time.Now()
		wg.Wait()
		streamWriteStall.ObserveSince(t0)
		return werr
	}

	for ri, base := 0, 0; base < len(run.pieces); ri, base = ri+1, base+p {
		round := run.pieces[base:min(base+p, len(run.pieces))]
		// Each writer receives its piece contiguously, in wire form, in the
		// buffer the in-flight write is not reading from, and emits it at
		// the exact stream offset (parallel streaming requires seek, §3.2).
		// The write itself is issued asynchronously, to be joined just
		// before the next one (or the return).
		var buf []byte
		if me < len(round) && !round[me].Empty() {
			buf = sizeBuf(&bufs[flip], round[me].Size()*es)
		}
		sent, err := array.PackPieces(a, run.rounds[ri], o.Order, buf)
		if err != nil {
			return st, err
		}
		st.NetBytes += recordNet(fs, me, sent)
		if len(buf) > 0 {
			gi := orig(base + me)
			rel := run.offsets[base+me]
			if o.PieceHook != nil {
				o.PieceHook(gi, rel, buf)
			}
			streamPieces.Inc()
			streamPieceBytes.Add(uint64(len(buf)))
			// Encode (compress, checksum, choose placement) while the
			// previous piece's file write is still in flight — the
			// encode stage of the pipeline.
			out, file, foff := buf, name, rel
			if o.EncodePiece != nil {
				enc, eerr := o.EncodePiece(gi, rel, buf)
				if eerr != nil {
					return st, eerr
				}
				if enc.Skip {
					continue
				}
				out = enc.Data
				if enc.File != "" {
					file, foff = enc.File, enc.Off
				}
			}
			if err := join(); err != nil {
				return st, err
			}
			st.StoredBytes += int64(len(out))
			wg.Add(1)
			go func(out []byte, file string, off int64) {
				defer wg.Done()
				t0 := time.Now()
				if err := fs.WriteAt(me, file, out, off); err != nil {
					werr = err
					return
				}
				streamWriteIOSeconds.ObserveSince(t0)
			}(out, file, foff)
			flip = 1 - flip
		}
	}
	return st, join()
}

// Read streams section x into array a from the named file on fs, the
// inverse of Write. The file must hold the section's linearization (same
// order and element type) from its first byte — it may have been
// written with a different distribution and a different number of tasks.
// Elements of a outside x are untouched. A filtered read (Options.Pieces)
// loads only the listed pieces of the full plan — the partial-restore
// path reads just the sections assigned to replacement ranks. Collective.
func Read[T array.Elem](a *array.Array[T], x rangeset.Slice, fs *pfs.System, name string, o Options) (st Stats, err error) {
	defer observeStream(streamReads, streamReadSeconds, time.Now(), &st, &err)
	comm, err := commOf(a, x)
	if err != nil {
		return Stats{}, err
	}
	es := array.ElemSize[T]()
	p := o.writers(comm.Size())
	sp, err := planFor(comm, a.Global(), x, es, o)
	if err != nil {
		return Stats{}, err
	}
	st = Stats{StreamBytes: sp.total, Pieces: len(sp.pieces)}
	me := comm.Rank()

	// A filtered read rounds over a subset of the plan's pieces exactly
	// like a filtered write: hooks and fetches see the full plan's
	// indices and byte offsets, so the bytes addressed are identical to
	// an unfiltered read of those pieces.
	run, orig := sp, func(i int) int { return i }
	if o.Pieces != nil {
		if run, err = sp.filtered(comm.Size(), o.Pieces, p); err != nil {
			return st, err
		}
		orig = func(i int) int { return o.Pieces[i] }
	}

	// Mirror image of Write's pipeline: this task's piece of round r+1 is
	// prefetched from the file while round r's redistribution runs.
	var (
		bufs    [2][]byte
		flip    int
		wg      sync.WaitGroup
		perr    error
		pending bool
	)
	defer func() { recycleBuf(bufs[0]); recycleBuf(bufs[1]) }()
	defer wg.Wait() // never leak an in-flight prefetch, even on error returns; runs before the recycle above
	// fetchPiece reads piece idx's stream extent into dst (idx indexes
	// the running sub-plan): from the caller's fetcher when set (chained
	// checkpoints resolve pieces across generations and codecs), from the
	// stream file otherwise.
	fetchPiece := func(idx int, dst []byte) error {
		if o.FetchPiece != nil {
			return o.FetchPiece(orig(idx), run.offsets[idx], dst)
		}
		return fs.ReadAt(me, name, dst, run.offsets[idx])
	}

	for ri, base := 0, 0; base < len(run.pieces); ri, base = ri+1, base+p {
		round := run.pieces[base:min(base+p, len(run.pieces))]
		hasPiece := me < len(round) && !round[me].Empty()
		var buf []byte
		if hasPiece {
			n := round[me].Size() * es
			if pending {
				// The prefetch issued last round read exactly this piece.
				t0 := time.Now()
				wg.Wait()
				streamReadStall.ObserveSince(t0)
				pending = false
				if perr != nil {
					return st, perr
				}
				buf = bufs[flip][:n]
			} else {
				buf = sizeBuf(&bufs[flip], n)
				if err := fetchPiece(base+me, buf); err != nil {
					return st, err
				}
			}
		}
		// Issue the prefetch of this task's next piece into the spare
		// buffer before entering the collective below, so the file read
		// overlaps the redistribution.
		if idx := base + p + me; me < p && idx < len(run.pieces) && !run.pieces[idx].Empty() {
			nbuf := sizeBuf(&bufs[1-flip], run.pieces[idx].Size()*es)
			wg.Add(1)
			pending = true
			go func(idx int) {
				defer wg.Done()
				perr = fetchPiece(idx, nbuf)
			}(idx)
			flip = 1 - flip
		}
		if hasPiece {
			streamPieces.Inc()
			streamPieceBytes.Add(uint64(len(buf)))
			if o.PieceHook != nil {
				o.PieceHook(orig(base+me), run.offsets[base+me], buf)
			}
		}
		sent, err := array.UnpackPieces(a, run.rounds[ri], o.Order, buf)
		if err != nil {
			return st, err
		}
		st.NetBytes += recordNet(fs, me, sent)
	}
	return st, nil
}

// commOf validates the section against the array and returns the
// communicator.
func commOf[T array.Elem](a *array.Array[T], x rangeset.Slice) (*msg.Comm, error) {
	if x.Rank() != a.Global().Rank() {
		return nil, fmt.Errorf("stream: section rank %d != array rank %d", x.Rank(), a.Global().Rank())
	}
	if !x.Within(a.Global()) {
		return nil, fmt.Errorf("stream: section %v exceeds array space %v", x, a.Global())
	}
	return a.Comm(), nil
}

// sizeBuf returns *b resized to n bytes, drawing a pooled buffer only
// when the capacity is insufficient, so piece buffers are recycled both
// across rounds (in place) and across operations (via the pool).
func sizeBuf(b *[]byte, n int) []byte {
	if cap(*b) < n {
		recycleBuf(*b)
		*b = borrowBuf(n)
	}
	*b = (*b)[:n]
	return *b
}

// recordNet records the n bytes this task sent to *other* tasks during a
// round's piece exchange in the file system's I/O trace, for the
// performance model, and returns n. The count is the exchange plan's own.
func recordNet(fs *pfs.System, rank int, n int64) int64 {
	if n > 0 && fs != nil {
		fs.RecordNet(rank, n)
	}
	return n
}
