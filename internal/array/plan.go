package array

import (
	"fmt"
	"sync/atomic"

	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// This file is the communication-plan layer. An array assignment between
// two fixed distributions always moves the same sections between the same
// peers: the n² rangeset intersections, their run decompositions, and the
// local-storage offsets of every run are pure functions of the
// (source distribution, destination distribution, rank) triple. Periodic
// checkpointing and iterative shadow exchanges repeat the identical
// assignment every interval, so the schedule is computed once, cached by
// identity, and every later collective merely executes it: a flat loop of
// bulk encodes at precomputed offsets, and a sparse exchange that touches
// only the peers that actually trade bytes.
//
// The same holds when one side is not an array but a stream piece held as
// bytes (PackPieces/UnpackPieces, pieces.go): the schedule is the
// assignment's with that side's runs taken in the piece's linearization,
// so the three kinds share one plan type and one builder.
//
// Plans belong to the communicator epoch that runs them. A rank's table
// lives in its Comm (msg.Comm.Local) and is dropped with it, so a retired
// epoch's plans go with its transport and a finished application's with
// its runner; a rank takes no lock to use it, because a Comm belongs to
// one task. Keys are distribution identity plus options. Distributions
// are immutable once built and the table holds its keys, so a pointer
// can neither change meaning nor be recycled while its plan lives; the
// communicator is the table's owner, not part of a key. Nothing is
// evicted: an epoch plans each pair of distributions once. A piece
// exchange's plans are not kept here but on the Round they run against
// (pieces.go), which its builder owns.

// xferRun is one run of a transfer section: n elements from element
// offset off of a task's local storage (pack side: the source array's
// mapped section; unpack side: the destination's). A stride-1 run is
// maximal in *storage*, not along the fast axis: storageRuns merges
// fast-axis runs that abut, so a dense block is a handful of extents.
type xferRun struct{ off, n int }

// peerXfer is the per-peer piece of a plan: the runs to pack (or unpack)
// for one remote peer and their exact wire size in bytes.
type peerXfer struct {
	peer  int
	bytes int
	runs  []xferRun
}

// assignPlan is the precomputed schedule of Assign(dst <- src) for one
// rank: the sparse communication graph, the pack/unpack runs per active
// remote peer, and the self-overlap, which is copied element-typed
// without touching the transport or the wire codec. A piece exchange runs
// the same schedule with one side's runs addressing a piece buffer.
type assignPlan struct {
	send, recv       []peerXfer
	sendTo, recvFrom []bool    // communication graph masks (self excluded)
	selfSrc, selfDst []xferRun // same elements in the same order, segmented independently
	remoteBytes      int64     // bytes this rank sends to other ranks
	landBytes        int       // bytes this rank's side of dst receives, self-overlap included

	// sendBufs is per-call scratch for the exchange. A plan belongs to one
	// rank's table (or Round) and collectives on its Comm are serial, so it
	// is never executed concurrently.
	sendBufs [][]byte
}

// gatherPlan is the precomputed schedule of Gather(root, order) for one
// rank: the runs packing its own assigned section, and — on root — the
// per-sender scatter runs into the dense global output.
type gatherPlan struct {
	packRuns   []xferRun
	packStride int
	packBytes  int
	scatter    [][]xferRun // root only; offsets into the global space, stride 1
}

// pieceSide says which side of a planned transfer is a stream piece held
// as bytes in the wire order rather than an array's column-major storage.
type pieceSide uint8

const (
	noPiece  pieceSide = iota // Assign: array to array
	pieceDst                  // PackPieces: array into this round's pieces
	pieceSrc                  // UnpackPieces: this round's pieces into the array
)

// assignKey identifies an Assign plan: the two distributions and the
// element size.
type assignKey struct {
	src, dst *dist.Distribution
	es       int
}

type gatherKey struct {
	d     *dist.Distribution
	root  int
	order rangeset.Order
	es    int
}

// planTable is one rank's plans for one communicator epoch.
type planTable struct {
	gen    uint64 // planGen when the table was (re)started
	assign map[assignKey]*assignPlan
	gather map[gatherKey]*gatherPlan
}

// The hit and miss counters and the flush generation are the only plan
// state the ranks of a process share.
var planHits, planMisses, planGen atomic.Uint64

// PlanCacheStats returns the process's cumulative plan hits and misses:
// assignment, piece exchange and gather plans combined. Benchmarks and
// the steady-state checkpoint tests use it to prove the hot path replays
// its schedules.
func PlanCacheStats() (hits, misses uint64) { return planHits.Load(), planMisses.Load() }

// FlushPlans makes every rank drop its plans at its next lookup, so the
// next collective recomputes its schedule. Tests and cold-path
// benchmarks use it; the steady state never needs it.
func FlushPlans() { planGen.Add(1) }

type tableKey struct{}

// tableOf returns c's plan table, emptied if FlushPlans ran since it was
// last used.
func tableOf(c *msg.Comm) *planTable {
	t := c.Local(tableKey{}, func() any { return new(planTable) }).(*planTable)
	if g := planGen.Load(); t.assign == nil || t.gen != g {
		*t = planTable{gen: g, assign: map[assignKey]*assignPlan{}, gather: map[gatherKey]*gatherPlan{}}
	}
	return t
}

// planned returns m[k], building and storing it on a miss, and counts the
// lookup.
func planned[K comparable, V any](m map[K]V, k K, build func() V) V {
	if v, ok := m[k]; ok {
		planHits.Add(1)
		return v
	}
	planMisses.Add(1)
	v := build()
	m[k] = v
	return v
}

// rankRuns resolves the section axis sa in the storage axis pa into runs of
// consecutive ranks: {r·stride, n} stands for n successive values of sa that
// hold ranks r, r+1, …, r+n−1 of pa. A regular range inside a regular range
// of equal step is one run, found from its two ends in O(1) whatever its
// length (a dense block, or what a cyclic distribution deals a task); any
// other axis costs one Rank per value. ok is false when a value of sa is
// missing from pa. sa must not be empty.
func rankRuns(sa, pa rangeset.Range, stride int) (runs []xferRun, ok bool) {
	n := sa.Size()
	if n > 1 && sa.IsRegular() && pa.IsRegular() && !pa.Empty() {
		lo, hi, step := sa.Bounds()
		if _, phi, pstep := pa.Bounds(); step == pstep {
			r, ok := pa.Rank(lo)
			return []xferRun{{r * stride, n}}, ok && hi <= phi
		}
	}
	runs = make([]xferRun, 0, n)
	for p, next := 0, -1; p < n; p++ {
		r, ok := pa.Rank(sa.At(p))
		if !ok {
			return nil, false
		}
		if r == next {
			runs[len(runs)-1].n++
		} else {
			runs = append(runs, xferRun{r * stride, 1})
		}
		next = r + 1
	}
	return runs, true
}

// storageRuns is the one run enumerator behind every data mover. It walks
// sec (a subset of space) in the given order and calls emit once per run
// with the offset of the run's first element in the layout linearization
// of space. When that linearization is the walk's own (layout == order:
// stride 1), a run is an extent of storage and as long as storage allows:
// one starting where its predecessor ends is merged into it. Runs arrive in
// wire order, so however they are cut they cover the same bytes in the same
// sequence: what is packed, sent, CRC'd and stored is identical by
// construction. Runs at a layout stride ≠ 1 (row-major over column-major
// storage) are not extents: they are the rank-runs of the walk's fast axis.
//
// The walk is over extents, not fast-axis runs. Each axis is resolved once
// (rankRuns). While the walk follows the layout, a leading axis that sec
// covers whole folds into its neighbour, whose rank-runs times the folded
// size are the extents from then on, until an axis stops short: a section
// that is its storage is one extent, found in O(d). The axes left over are
// stepped by position through tables of precomputed offsets. Every axis is
// resolved, and with it every coordinate of the cross product proven inside
// space, before the first emit. A miss panics: an escaping section is a
// planning bug.
func storageRuns(sec, space rangeset.Slice, layout, order rangeset.Order, emit func(off, n int)) {
	escape := func() { panic(fmt.Sprintf("array: section %v escapes storage %v", sec, space)) }
	d := sec.Rank()
	if space.Rank() != d {
		escape()
	}
	if d == 0 {
		emit(0, 1)
		return
	}
	if sec.Empty() {
		return
	}
	axisOf := func(o rangeset.Order, j int) int { // o's j-th axis, fastest first
		if o == rangeset.RowMajor {
			return d - 1 - j
		}
		return j
	}
	strides := make([]int, d) // of each axis in the layout linearization of space
	for j, stride := 0, 1; j < d; j++ {
		i := axisOf(layout, j)
		strides[i] = stride
		stride *= space.Axis(i).Size()
	}
	at := func(j int) int { return axisOf(order, j) } // the walk's j-th axis
	resolve := func(j int) []xferRun {
		i := at(j)
		runs, ok := rankRuns(sec.Axis(i), space.Axis(i), strides[i])
		if !ok {
			escape()
		}
		return runs
	}
	merge := layout == order || d == 1
	inner, j := resolve(0), 1
	for ; merge && j < d && len(inner) == 1 && inner[0].n == strides[at(j)]; j++ {
		inner = resolve(j) // all of storage below axis j is one extent: fold it in
		for k := range inner {
			inner[k].n *= strides[at(j)]
		}
	}
	tabs := make([][]int, 0, d-j) // tabs[k][p]: offset of the p-th value of the k-th axis left
	for ; j < d; j++ {
		t := make([]int, 0, sec.Axis(at(j)).Size())
		for _, r := range resolve(j) {
			for k := 0; k < r.n; k++ {
				t = append(t, r.off+k*strides[at(j)])
			}
		}
		tabs = append(tabs, t)
	}
	pos := make([]int, len(tabs))
	off, n := 0, 0 // the pending run
	for done := false; !done; {
		base := 0
		for k, t := range tabs {
			base += t[pos[k]]
		}
		for _, r := range inner {
			if o := base + r.off; !merge || o != off+n {
				if n > 0 {
					emit(off, n)
				}
				off, n = o, 0
			}
			n += r.n
		}
		done = true
		for k, t := range tabs { // step the odometer
			if pos[k]++; pos[k] < len(t) {
				done = false
				break
			}
			pos[k] = 0
		}
	}
	emit(off, n)
}

// sectionRuns collects the storageRuns of sec into a plan's run list.
func sectionRuns(sec, space rangeset.Slice, layout, order rangeset.Order) []xferRun {
	var runs []xferRun
	storageRuns(sec, space, layout, order, func(off, n int) { runs = append(runs, xferRun{off, n}) })
	return runs
}

// assignPlanFor returns the plan of Assign(dst <- src) on c for element
// size es, building it on the epoch's first such assignment.
func assignPlanFor(src, dst *dist.Distribution, c *msg.Comm, es int) *assignPlan {
	return planned(tableOf(c).assign, assignKey{src, dst, es}, func() *assignPlan {
		return buildAssignPlan(src, dst, c.Rank(), c.Size(), es, rangeset.ColMajor, noPiece)
	})
}

// buildAssignPlan computes rank's full schedule for Assign(dst <- src):
// exactly the intersections the plan-free reference path computes per
// call, stored as flat run lists. Both sides of every transfer derive the
// same intersection section and walk it in the same order, so the run
// decompositions (and hence the wire bytes) agree pair-wise by
// construction. An array side's runs address its column-major mapped
// storage; a piece side's address the piece's own linearization in order,
// element offsets into the piece buffer.
func buildAssignPlan(src, dst *dist.Distribution, rank, size, es int, order rangeset.Order, piece pieceSide) *assignPlan {
	pl := &assignPlan{
		sendTo:   make([]bool, size),
		recvFrom: make([]bool, size),
		sendBufs: make([][]byte, size),
	}
	srcLayout, dstLayout := rangeset.ColMajor, rangeset.ColMajor
	switch piece {
	case pieceSrc:
		srcLayout = order
	case pieceDst:
		dstLayout = order
	}
	myAssigned := src.Assigned(rank)
	srcMapped := src.Mapped(rank)
	for q := 0; q < size; q++ {
		sec := myAssigned.Intersect(dst.Mapped(q))
		if sec.Empty() {
			continue
		}
		runs := sectionRuns(sec, srcMapped, srcLayout, order)
		if q == rank {
			pl.selfSrc = runs
			continue
		}
		pl.send = append(pl.send, peerXfer{peer: q, bytes: sec.Size() * es, runs: runs})
		pl.sendTo[q] = true
		pl.remoteBytes += int64(sec.Size()) * int64(es)
	}
	dstMapped := dst.Mapped(rank)
	for q := 0; q < size; q++ {
		sec := src.Assigned(q).Intersect(dstMapped)
		if sec.Empty() {
			continue
		}
		pl.landBytes += sec.Size() * es
		runs := sectionRuns(sec, dstMapped, dstLayout, order)
		if q == rank {
			pl.selfDst = runs
			continue
		}
		pl.recv = append(pl.recv, peerXfer{peer: q, bytes: sec.Size() * es, runs: runs})
		pl.recvFrom[q] = true
	}
	return pl
}

// exchange runs the plan's sparse all-to-all over the send buffers the
// caller packed into sendBufs — only the peers the plan marks active are
// framed and touched — and hands them off to the ranks that land them.
// On failure (revoked comm, dead peer) the per-call state is cleared all
// the same, so the cached schedule stays pristine for a retry or restart.
// What comes back has been checked — every active sender delivered exactly
// the bytes the plan expects of it — and is putBuf'd once it has landed.
func (pl *assignPlan) exchange(c *msg.Comm) ([][]byte, error) {
	recv, err := c.AlltoallSparse(pl.sendBufs, pl.sendTo, pl.recvFrom)
	for i := range pl.send {
		pl.sendBufs[pl.send[i].peer] = nil
	}
	if err != nil {
		return nil, err
	}
	for i := range pl.recv {
		if px := &pl.recv[i]; len(recv[px.peer]) != px.bytes {
			return nil, fmt.Errorf("peer %d sent %d bytes, plan expects %d", px.peer, len(recv[px.peer]), px.bytes)
		}
	}
	return recv, nil
}

// zipRuns walks two run lists that hold the same elements in the same
// order but break where their own storage does (a shadowed side differs
// from an unshadowed one, a piece from a block), calling f with both
// offsets once per common stretch. bStep is the storage step of b's runs.
func zipRuns(a, b []xferRun, bStep int, f func(ao, bo, n int)) {
	for i, j, ai, bj := 0, 0, 0, 0; i < len(a) && j < len(b); {
		n := min(a[i].n-ai, b[j].n-bj)
		f(a[i].off+ai, b[j].off+bj*bStep, n)
		if ai += n; ai == a[i].n {
			i, ai = i+1, 0
		}
		if bj += n; bj == b[j].n {
			j, bj = j+1, 0
		}
	}
}

// gatherPlanFor returns the plan of Gather(root, order) on c for
// distribution d and element size es.
func gatherPlanFor(d *dist.Distribution, c *msg.Comm, root int, order rangeset.Order, es int) *gatherPlan {
	return planned(tableOf(c).gather, gatherKey{d, root, order, es}, func() *gatherPlan {
		return buildGatherPlan(d, c.Rank(), c.Size(), root, order, es)
	})
}

func buildGatherPlan(d *dist.Distribution, rank, size, root int, order rangeset.Order, es int) *gatherPlan {
	mine := d.Assigned(rank)
	pl := &gatherPlan{
		packRuns:   sectionRuns(mine, d.Mapped(rank), rangeset.ColMajor, order),
		packStride: runStride(d.Mapped(rank), order),
		packBytes:  mine.Size() * es,
	}
	if rank != root {
		return pl
	}
	g := d.Global()
	pl.scatter = make([][]xferRun, size)
	for q := 0; q < size; q++ {
		pl.scatter[q] = sectionRuns(d.Assigned(q), g, order, order)
	}
	return pl
}

// packRuns bulk-encodes the planned runs of boxed local storage into buf
// in schedule order; unpackRuns is the inverse. stride is the layout
// stride of the run axis (1 for the column-major assignment paths).
func packRuns(local any, buf []byte, runs []xferRun, es, stride int) {
	o := 0
	for _, r := range runs {
		encodeRun(local, buf[o:], r.off, r.n, stride)
		o += r.n * es
	}
}

func unpackRuns(local any, buf []byte, runs []xferRun, es, stride int) {
	o := 0
	for _, r := range runs {
		decodeRun(local, buf[o:], r.off, r.n, stride)
		o += r.n * es
	}
}
