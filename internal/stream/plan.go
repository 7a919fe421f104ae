package stream

import (
	"fmt"

	"drms/internal/dist"
	"drms/internal/lru"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// Periodic checkpointing replays the same streaming operation every
// interval: the same section, element size, writer count, and piece size
// produce the same piece partition, the same byte offsets, and the same
// per-round canonical distributions. This file caches that whole plan, so
// the recursive bisection and the round-distribution construction run
// once per configuration — and, because the cached rounds are the *same*
// *dist.Distribution pointers every time, the array layer's plan cache
// (keyed by distribution identity) hits on every redistribution of every
// later checkpoint.

// streamPlan is the reusable schedule of one streaming configuration.
type streamPlan struct {
	pieces  []rangeset.Slice
	offsets []int64 // stream-relative byte offsets
	total   int64
	rounds  []*dist.Distribution // rounds[i] binds pieces[i*writers:...]
}

// streamKey identifies a plan. The communicator pointer plus its
// (epoch, size) scope entries to one communicator incarnation: the
// pointer alone would not survive an in-flight resize, which retires
// communicators and allocates new ones in the same process — a recycled
// address must miss and replan, not replay a stale piece schedule. The
// section and global signatures are the canonical String renderings,
// which uniquely encode a slice. ioTask is -1 for the parallel path
// (round pieces land on tasks 0..writers-1) or the designated I/O task of
// the sequential-channel path (every piece lands there). pieces is empty
// for the full plan, or the rendered piece-index subset of a filtered
// write (Options.Pieces) — a delta checkpoint's dirty set repeats
// whenever the application revisits a working set, so filtered round
// distributions are worth caching too.
type streamKey struct {
	comm        *msg.Comm
	epoch, size int
	global      string
	section     string
	elemSize    int
	writers     int
	pieceBytes  int
	order       rangeset.Order
	ioTask      int
	pieces      string
}

// Streaming plans are few (one per checkpointed array configuration) but
// each holds its rounds' distributions, so the bound is modest.
var streamPlans = lru.New[streamKey, *streamPlan](32)

// PlanCacheStats returns the cumulative hit/miss counts of the streaming
// plan cache.
func PlanCacheStats() (hits, misses uint64) { return streamPlans.Stats() }

// FlushPlans drops every cached streaming plan, forcing the next Write or
// Read to replan (tests and cold-path benchmarks).
func FlushPlans() { streamPlans.Flush() }

// planFor returns the cached streaming plan for section x of a global
// space distributed over comm, building it on a miss. Write and Read of
// the same configuration share one plan: the piece partition and offsets
// are direction-independent.
func planFor(comm *msg.Comm, global, x rangeset.Slice, elemSize int, o Options) (*streamPlan, error) {
	return lookupPlan(comm, global, x, elemSize, o.writers(comm.Size()), -1, o)
}

// planForSeq is planFor for the sequential-channel path: one writer, with
// every piece bound to the designated I/O task.
func planForSeq(comm *msg.Comm, global, x rangeset.Slice, elemSize, ioTask int, o Options) (*streamPlan, error) {
	return lookupPlan(comm, global, x, elemSize, 1, ioTask, o)
}

func lookupPlan(comm *msg.Comm, global, x rangeset.Slice, elemSize, writers, ioTask int, o Options) (*streamPlan, error) {
	k := streamKey{
		comm:       comm,
		epoch:      comm.Epoch(),
		size:       comm.Size(),
		global:     global.String(),
		section:    x.String(),
		elemSize:   elemSize,
		writers:    writers,
		pieceBytes: o.pieceBytes(),
		order:      o.Order,
		ioTask:     ioTask,
	}
	if sp, ok := streamPlans.Get(k); ok {
		return sp, nil
	}
	sp, err := buildStreamPlan(comm.Size(), global, x, elemSize, writers, ioTask, o)
	if err != nil {
		return nil, err
	}
	streamPlans.Add(k, sp)
	return sp, nil
}

// buildStreamPlan computes the piece decomposition, per-piece byte
// offsets, and per-round canonical distributions for section x. m is
// chosen so each piece is at most ~PieceBytes, but never below the writer
// count, "in order to exploit parallelism" (§3.2). The byte layout of the
// stream is independent of m: offsets are prefix sums over a partition
// whose concatenated linearizations equal the section's linearization, so
// a reader may replan with any m and still address the same bytes.
func buildStreamPlan(tasks int, global, x rangeset.Slice, elemSize, writers, ioTask int, o Options) (*streamPlan, error) {
	sp := &streamPlan{}
	if x.Empty() {
		return sp, nil
	}
	sp.total = int64(x.Size()) * int64(elemSize)
	m := int((sp.total + int64(o.pieceBytes()) - 1) / int64(o.pieceBytes()))
	m = max(m, writers)
	sp.pieces = x.Partition(m, o.Order)
	sp.offsets = make([]int64, len(sp.pieces))
	var off int64
	for i, p := range sp.pieces {
		sp.offsets[i] = off
		off += int64(p.Size()) * int64(elemSize)
	}
	var err error
	sp.rounds, err = buildRounds(tasks, global, sp.pieces, writers, ioTask)
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// buildRounds computes one canonical distribution per round of writers
// pieces: task p's assigned and mapped section is the round's piece p
// (or the designated I/O task's piece, for sequential streaming); tasks
// beyond the round get empty sections (they still participate in the
// redistribution, as they may hold elements of the pieces — Fig. 5b
// resets their slices to empty each iteration). The pieces may be any
// subset of a plan's partition: a filtered delta write rounds over only
// its dirty pieces.
func buildRounds(tasks int, global rangeset.Slice, pieces []rangeset.Slice, writers, ioTask int) ([]*dist.Distribution, error) {
	empty := global.EmptyLike()
	assigned := make([]rangeset.Slice, tasks)
	var rounds []*dist.Distribution
	for base := 0; base < len(pieces); base += writers {
		round := pieces[base:min(base+writers, len(pieces))]
		for i := range assigned {
			assigned[i] = empty
		}
		for i, piece := range round {
			if ioTask >= 0 {
				assigned[ioTask] = piece
			} else {
				assigned[i] = piece
			}
		}
		ad, err := dist.Irregular(global, assigned, nil)
		if err != nil {
			return nil, fmt.Errorf("stream: building canonical distribution: %w", err)
		}
		rounds = append(rounds, ad)
	}
	return rounds, nil
}

// filteredPlanFor returns the sub-plan of a filtered write: the full
// plan's pieces at the given (ascending, in-range) indices, with their
// own round distributions. Cached under the full plan's key extended
// with the index subset, so a recurring dirty set replays cached rounds
// — and, through stable distribution pointers, cached array plans.
func filteredPlanFor(comm *msg.Comm, global, x rangeset.Slice, full *streamPlan, idx []int, elemSize int, o Options) (*streamPlan, error) {
	k := streamKey{
		comm:       comm,
		epoch:      comm.Epoch(),
		size:       comm.Size(),
		global:     global.String(),
		section:    x.String(),
		elemSize:   elemSize,
		writers:    o.writers(comm.Size()),
		pieceBytes: o.pieceBytes(),
		order:      o.Order,
		ioTask:     -1,
		pieces:     fmt.Sprint(idx),
	}
	if sp, ok := streamPlans.Get(k); ok {
		return sp, nil
	}
	sub := &streamPlan{
		pieces:  make([]rangeset.Slice, len(idx)),
		offsets: make([]int64, len(idx)),
		total:   full.total,
	}
	for j, i := range idx {
		if i < 0 || i >= len(full.pieces) || (j > 0 && i <= idx[j-1]) {
			return nil, fmt.Errorf("stream: piece filter %v is not an ascending subset of the %d-piece plan", idx, len(full.pieces))
		}
		sub.pieces[j] = full.pieces[i]
		sub.offsets[j] = full.offsets[i]
	}
	rounds, err := buildRounds(comm.Size(), global, sub.pieces, o.writers(comm.Size()), -1)
	if err != nil {
		return nil, err
	}
	sub.rounds = rounds
	streamPlans.Add(k, sub)
	return sub, nil
}

// PieceSpans reproduces the piece partition and byte offsets of the plan
// Write uses for section x with the given element size on a tasks-wide
// application, without a communicator or the plan cache. The partial-
// restore planner and drmsfsck's coverage check use it to map piece
// indices to the array sections they carry: piece i holds exactly
// spans[i]'s elements, linearized at stream offset offsets[i].
func PieceSpans(x rangeset.Slice, elemSize, tasks int, o Options) (spans []rangeset.Slice, offsets []int64) {
	if x.Empty() {
		return nil, nil
	}
	total := int64(x.Size()) * int64(elemSize)
	m := int((total + int64(o.pieceBytes()) - 1) / int64(o.pieceBytes()))
	m = max(m, o.writers(tasks))
	spans = x.Partition(m, o.Order)
	offsets = make([]int64, len(spans))
	var off int64
	for i, p := range spans {
		offsets[i] = off
		off += int64(p.Size()) * int64(elemSize)
	}
	return spans, offsets
}

// PlanSig returns a stable signature of the piece plan Write uses for
// section x with the given element size on a tasks-wide application. Two
// streaming operations with equal signatures use the identical piece
// decomposition and byte offsets, so a stored signature is a cheap
// "did the plan change?" identity test — the checkpoint layer compares
// signatures before trusting per-piece diffing across generations.
// Stored metadata carries these strings, so the text is a format: the
// trailing "|base=0" (the stream's start offset in its file) stays.
func PlanSig(x rangeset.Slice, elemSize, tasks int, o Options) string {
	return fmt.Sprintf("%s|es=%d|w=%d|pb=%d|ord=%d|base=0",
		x.String(), elemSize, o.writers(tasks), o.pieceBytes(), o.Order)
}
