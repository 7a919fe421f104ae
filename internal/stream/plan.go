package stream

import (
	"fmt"
	"slices"
	"sync/atomic"

	"drms/internal/array"
	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// Periodic checkpointing replays the same streaming operation every
// interval: the same section, element size, writer count, and piece size
// produce the same piece partition, the same byte offsets, and the same
// per-round canonical distributions. This file keeps that whole plan, so
// the recursive bisection and the round-distribution construction run
// once per configuration — and, because the kept rounds carry their
// exchange plans (array.Round), every redistribution of every later
// checkpoint replays its schedule too.
//
// Plans belong to the communicator epoch that runs them, like the array
// layer's: a rank's table lives in its Comm (msg.Comm.Local) and is
// dropped with it, and a rank takes no lock to use it. A plan is found by
// its options and by the global space and section it was built for,
// compared by size and containment — O(rank) for regular axes, with no
// rendering. Unfiltered plans live as long as the epoch. A filtered
// operation's sub-plan (Options.Pieces: a delta's dirty pieces, a partial
// restore's) hangs off the full plan it selects from, which keeps only the
// newest maxSubPlans: a dirty set is new at nearly every delta, so the
// sub-plans of a long-lived writer must not accumulate, and with them go
// their fresh rounds and those rounds' exchange plans.

// streamPlan is the reusable schedule of one streaming configuration.
type streamPlan struct {
	key             planKey
	global, section rangeset.Slice
	pieces          []rangeset.Slice
	offsets         []int64 // stream-relative byte offsets
	total           int64
	rounds          []*array.Round // rounds[i] binds pieces[i*writers:...]

	// subs are the sub-plans of the newest filtered operations over this
	// plan, newest first; a sub-plan's idx are its pieces' indices here.
	subs []*streamPlan
	idx  []int
}

// planKey is a plan's options. ioTask is -1 for the parallel path (round
// pieces land on tasks 0..writers-1) or the designated I/O task of the
// sequential-channel path (every piece lands there).
type planKey struct {
	elemSize, writers, pieceBytes int
	order                         rangeset.Order
	ioTask                        int
}

// maxSubPlans bounds the filtered sub-plans kept per plan: enough for a
// few working sets an application revisits.
const maxSubPlans = 4

// planTable is one rank's stream plans for one communicator epoch.
type planTable struct {
	gen   uint64 // planGen when the table was (re)started
	plans []*streamPlan
}

// The hit and miss counters and the flush generation are the only plan
// state the ranks of a process share.
var planHits, planMisses, planGen atomic.Uint64

// PlanCacheStats returns the process's cumulative stream plan hits and
// misses, filtered sub-plans included.
func PlanCacheStats() (hits, misses uint64) { return planHits.Load(), planMisses.Load() }

// FlushPlans makes every rank drop its stream plans at its next lookup,
// forcing the next Write or Read to replan (tests and cold-path
// benchmarks).
func FlushPlans() { planGen.Add(1) }

type tableKey struct{}

// planFor returns the streaming plan for section x of a global space
// distributed over comm, building it on a miss. Write and Read of the
// same configuration share one plan: the piece partition and offsets are
// direction-independent.
func planFor(comm *msg.Comm, global, x rangeset.Slice, elemSize int, o Options) (*streamPlan, error) {
	return lookupPlan(comm, global, x, elemSize, o.writers(comm.Size()), -1, o)
}

// planForSeq is planFor for the sequential-channel path: one writer, with
// every piece bound to the designated I/O task.
func planForSeq(comm *msg.Comm, global, x rangeset.Slice, elemSize, ioTask int, o Options) (*streamPlan, error) {
	return lookupPlan(comm, global, x, elemSize, 1, ioTask, o)
}

func lookupPlan(comm *msg.Comm, global, x rangeset.Slice, elemSize, writers, ioTask int, o Options) (*streamPlan, error) {
	t := comm.Local(tableKey{}, func() any { return new(planTable) }).(*planTable)
	if g := planGen.Load(); t.gen != g {
		*t = planTable{gen: g}
	}
	k := planKey{elemSize: elemSize, writers: writers, pieceBytes: o.pieceBytes(), order: o.Order, ioTask: ioTask}
	for _, sp := range t.plans {
		if sp.key == k && sameSlice(sp.section, x) && sameSlice(sp.global, global) {
			planHits.Add(1)
			return sp, nil
		}
	}
	planMisses.Add(1)
	sp, err := buildStreamPlan(comm.Size(), global, x, elemSize, writers, ioTask, o)
	if err != nil {
		return nil, err
	}
	sp.key, sp.global, sp.section = k, global, x
	t.plans = append(t.plans, sp)
	return sp, nil
}

// sameSlice reports whether a and b are the same section: of equal size,
// one within the other. Containment is decided in O(1) per regular axis,
// where Equal walks every element.
func sameSlice(a, b rangeset.Slice) bool {
	return a.Size() == b.Size() && a.Within(b)
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
func buildRounds(tasks int, global rangeset.Slice, pieces []rangeset.Slice, writers, ioTask int) ([]*array.Round, error) {
	empty := global.EmptyLike()
	assigned := make([]rangeset.Slice, tasks)
	var rounds []*array.Round
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
		rounds = append(rounds, array.NewRound(ad))
	}
	return rounds, nil
}

// filtered returns the sub-plan of a filtered operation on a tasks-wide
// communicator: the plan's pieces at the given (ascending, in-range)
// indices, with their own round distributions. A recurring piece set
// replays its sub-plan, rounds and exchange plans included, while it is
// among the newest maxSubPlans.
func (sp *streamPlan) filtered(tasks int, idx []int, writers int) (*streamPlan, error) {
	for i, sub := range sp.subs {
		if slices.Equal(sub.idx, idx) {
			planHits.Add(1)
			copy(sp.subs[1:i+1], sp.subs[:i])
			sp.subs[0] = sub
			return sub, nil
		}
	}
	planMisses.Add(1)
	sub := &streamPlan{
		pieces:  make([]rangeset.Slice, len(idx)),
		offsets: make([]int64, len(idx)),
		total:   sp.total,
		idx:     slices.Clone(idx),
	}
	for j, i := range idx {
		if i < 0 || i >= len(sp.pieces) || (j > 0 && i <= idx[j-1]) {
			return nil, fmt.Errorf("stream: piece filter %v is not an ascending subset of the %d-piece plan", idx, len(sp.pieces))
		}
		sub.pieces[j] = sp.pieces[i]
		sub.offsets[j] = sp.offsets[i]
	}
	rounds, err := buildRounds(tasks, sp.global, sub.pieces, writers, -1)
	if err != nil {
		return nil, err
	}
	sub.rounds = rounds
	sp.subs = slices.Insert(sp.subs[:min(len(sp.subs), maxSubPlans-1)], 0, sub)
	return sub, nil
}

// PieceSpans reproduces the piece partition and byte offsets of the plan
// Write uses for section x with the given element size on a tasks-wide
// application, without a communicator or a plan table. The partial-
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
