// Partial restore: the storage side of localized recovery (DESIGN.md
// §3j). When a supervised application loses ranks, the survivors keep
// their state in memory and only the replacement ranks load from the
// checkpoint — but the load is still a collective, because the stream
// layer's two-phase redistribution is. ReadDRMSPartial runs the restore
// engine with a subset plan: exactly the pieces whose sections the
// current distribution assigns to the replacement ranks are restored,
// every task joins the filtered collective read, the fetch cost
// concentrates on the needed pieces, and with owner-aligned tier
// replicas the bytes come out of the replacement node's peers' memory
// rather than the pfs. The engine decides the plan in one round before
// anything is read: every task votes whether its arrays match the
// metadata (plan signatures) and whether it loads the segment; rank 0
// forms the restore set and judges storage for it (resolvable chain,
// surviving replicas for memory-only pieces). A refused plan fails every
// task together with an "ineligible" error naming rank 0's first
// disqualifier; the caller (drms) falls back to the full restart path.
package ckpt

import (
	"fmt"
	"slices"

	"drms/internal/frame"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/seg"
	"drms/internal/stream"
)

// PartialRestoreOptions tune a partial restore.
type PartialRestoreOptions struct {
	// Tier serves pieces and the segment from surviving peers' memory
	// (required for memory-only generations).
	Tier *MemTier
	// Holders maps rank -> tier store (node) id, as at write time.
	Holders []int
	// Ranks lists replacement ranks whose assigned sections must be
	// loaded from the checkpoint. The restore set, agreed in the engine's
	// decision round and returned in Stats.Ranks, is rank 0's list plus
	// every task that sets NeedSegment.
	Ranks []int
	// NeedSegment makes this task a replacement: it loads and decodes the
	// saved data segment and joins the restore set. Survivors restore
	// their segment from the in-memory park snapshot and pass false.
	NeedSegment bool
}

// neededPieces returns the ascending full-plan piece indices a subset
// restore must load for the given ranks — every piece whose section
// intersects some listed rank's assigned section under the array's
// current distribution — and their total stream bytes (total is the
// stream's size, bounding the last piece). Never nil: an empty list
// streams nothing. Deterministic in (array, tasks, ranks, options), so
// every task computes the same set locally.
func neededPieces(a ArrayRef, tasks int, ranks []int, o stream.Options, total int64) (needed []int, bytes int64) {
	spans, offs := stream.PieceSpans(a.GlobalShape(), a.ElemSize(), tasks, o)
	offs = append(offs, total)
	needed = make([]int, 0, len(spans))
	for i, sp := range spans {
		for _, r := range ranks {
			if !sp.Intersect(a.AssignedSection(r)).Empty() {
				needed = append(needed, i)
				bytes += offs[i+1] - offs[i]
				break
			}
		}
	}
	return needed, bytes
}

// ReadDRMSPartial restores only the restore set's assigned sections
// (and, for tasks with NeedSegment, the saved data segment) from a DRMS
// checkpoint. Collective: survivors join the redistribution but request
// no sections of their own. The task count must equal the checkpointing
// task count and the streaming options must reproduce the checkpoint's
// piece plan (PlanSigs must match): partial restore filters the writer's
// plan by piece index, so it never replans. Every loaded piece is
// verified against the per-piece checksums; the whole-stream CRC is not
// checked (the stream is deliberately not read whole). Stats count only
// the bytes actually restored, with the tier split reduced cluster-wide
// — the counters that prove no full-state read happened — and carry the
// agreed restore set in Ranks.
func ReadDRMSPartial(fs *pfs.System, prefix string, comm *msg.Comm, sg *seg.Segment, arrays []ArrayRef, o stream.Options, po PartialRestoreOptions) (Meta, Stats, error) {
	return restoreDRMS(fs, prefix, comm, sg, arrays, o, restorePlan{RestoreOptions: RestoreOptions{Verify: true,
		Tier: po.Tier, Holders: po.Holders}, subset: true, ranks: po.Ranks, segment: po.NeedSegment})
}

// PartialEligible answers without a restore whether a partial restore of
// prefix over a tasks-wide communicator, loading the listed ranks'
// sections of the given arrays, is provably safe: nil, or the first
// disqualifier of the metadata (matchArrays) or of storage
// (partialReadable, as rank 0 of the engine's decision round runs it).
func PartialEligible(fs *pfs.System, tier *MemTier, prefix string, tasks int, arrays []ArrayRef, ranks []int, o stream.Options) error {
	m, err := ReadMeta(fs, prefix, 0)
	if err != nil {
		return err
	}
	refs, err := matchArrays(&m, prefix, arrays, tasks, o, true)
	if err != nil {
		return err
	}
	fetchers, _ := fetchersFor(fs, prefix, &m, refs, o, restorePlan{RestoreOptions: RestoreOptions{Tier: tier}, subset: true, ranks: ranks}, tasks, 0, -1)
	return partialReadable(fs, tier, prefix, &m, fetchers)
}

// subsetVerdict is rank 0's decision on a subset plan: whether it is
// safe, the restore set, and otherwise Why, its first disqualifier.
// subsetFrame encodes v, or with dec decodes b into it, refusing ranks
// out of order or outside a tasks-wide communicator.
type subsetVerdict struct {
	OK    bool
	Ranks []int
	Why   string
}

func subsetFrame(dec bool, b []byte, v *subsetVerdict, tasks int) ([]byte, error) {
	c := &frame.Codec{Dec: dec, B: b}
	c.Flags(&v.OK)
	frame.List(c, &v.Ranks, func(r *int) { frame.Varint(c, r) })
	c.Str(&v.Why)
	for i, r := range v.Ranks {
		if dec && (r < 0 || r >= tasks || i > 0 && r <= v.Ranks[i-1]) {
			c.Fail("restore set %v on %d tasks", v.Ranks, tasks)
			break
		}
	}
	return c.End()
}

// decideSubset is a subset plan's one decision round (decideAtRoot).
// Every task votes [eligible, loads]: whether its arrays matched the
// metadata (matched is matchArrays' verdict) and whether it loads the
// segment. Rank 0 forms the restore set — its plan's ranks and every
// task that loads — judges storage for it once, and broadcasts the set
// or its first disqualifier, which every task then reports. It returns
// the agreed set, and at rank 0 the fetchers it judged with.
func decideSubset(fs *pfs.System, prefix string, comm *msg.Comm, m *Meta, refs []ArrayRef, o stream.Options, p restorePlan, selfNode int, matched error) (ranks []int, fetchers []*pieceFetcher, loaded []int64, err error) {
	me, size := comm.Rank(), comm.Size()
	payload, err := decideAtRoot(comm, []byte{bit(matched == nil), bit(p.segment)}, func(votes [][]byte) ([]byte, error) {
		why, set := matched, slices.Clone(p.ranks)
		for r, b := range votes {
			if len(b) != 2 {
				return nil, fmt.Errorf("ckpt: a %d-byte partial restore vote", len(b))
			} else if b[0] == 0 && why == nil {
				why = fmt.Errorf("rank %d's arrays do not match the checkpoint", r)
			} else if b[1] == 1 {
				set = append(set, r)
			}
		}
		v := subsetVerdict{Ranks: slices.Compact(slices.Sorted(slices.Values(set)))}
		if why == nil && len(v.Ranks) > 0 && (v.Ranks[0] < 0 || v.Ranks[len(v.Ranks)-1] >= size) {
			why = fmt.Errorf("restore set %v names a rank outside %d tasks", v.Ranks, size)
		} else if why == nil {
			p.ranks = v.Ranks
			fetchers, loaded = fetchersFor(fs, prefix, m, refs, o, p, size, me, selfNode)
			why = partialReadable(fs, p.Tier, prefix, m, fetchers)
		}
		if v.OK = why == nil; !v.OK {
			v.Ranks, v.Why = nil, why.Error()
		}
		return subsetFrame(false, nil, &v, size)
	})
	var v subsetVerdict
	if err == nil {
		if _, err = subsetFrame(true, payload, &v, size); err != nil {
			err = fmt.Errorf("ckpt: decoding the partial restore verdict: %w", err)
		}
	}
	if err == nil && !v.OK {
		err = fmt.Errorf("ckpt: partial restore of %q is ineligible: %s", prefix, v.Why)
	}
	return v.Ranks, fetchers, loaded, err
}

// partialReadable reports whether storage can serve a subset restore
// of m: the segment readable in some tier, and every piece a fetcher
// needs resolvable — its CRC-valid replica for a memory-tier piece, an
// existing file otherwise (a pruned chain predecessor surfaces here as
// a missing piece file).
func partialReadable(fs *pfs.System, tier *MemTier, prefix string, m *Meta, fetchers []*pieceFetcher) error {
	ckptPartialChecks.Inc()
	if m.SegWhere == TierMem {
		if _, _, ok := tier.Lookup(-1, prefix, "", segIndex, m.SegCRC[0]); !ok {
			return fmt.Errorf("segment of %q is memory-only and no intact replica survives", prefix)
		}
	} else if !fs.Exists(segFile(prefix)) {
		return fmt.Errorf("segment file of %q is missing", prefix)
	}
	for _, f := range fetchers {
		found := 0
		for j, l := range f.locs {
			if _, read := slices.BinarySearch(f.needed, l.Index); !read {
				continue
			}
			found++
			if l.Where == TierMem && !f.held[j].ok {
				return fmt.Errorf("array %q piece %d is memory-only and no intact replica survives", f.arr, l.Index)
			} else if l.Where != TierMem && !fs.Exists(f.fileOf(l)) {
				return fmt.Errorf("array %q piece %d: chain piece file missing (gap at generation %d)", f.arr, l.Index, l.Gen)
			}
		}
		if found != len(f.needed) {
			return fmt.Errorf("array %q: %d needed pieces have no location record", f.arr, len(f.needed)-found)
		}
	}
	return nil
}

// RankCoverage summarizes how one replacement rank's share of one array
// would be served by a partial restore: of the pieces its equal
// contiguous share of the stream needs, how many are CRC-valid in
// surviving peer memory, how many are readable from pfs files, and how
// many are in neither tier (lost — a partial restore would fall back).
type RankCoverage struct {
	Rank   int
	Pieces int // pieces the rank's share needs
	Mem    int // of those, resident in surviving peer memory
	Disk   int // of those, readable from pfs storage
	Lost   int // of those, in neither tier
}

// PartialCoverage reports, per array, each rank of a hypothetical
// tasks-wide replacement pool and the tier coverage of the pieces its
// equal contiguous stream share needs. drmsfsck's -coverage check uses
// it to answer "which ranks could restore partially, and from where?"
// without running an application.
func PartialCoverage(fs *pfs.System, tier *MemTier, prefix string, tasks int) (map[string][]RankCoverage, error) {
	prefix, _ = Resolve(fs, prefix)
	m, err := ReadMeta(fs, prefix, 0)
	if err != nil {
		return nil, err
	}
	if m.Mode != ModeDRMS {
		return nil, fmt.Errorf("ckpt: %q is a %s checkpoint; coverage applies to DRMS states", prefix, m.Mode)
	}
	out := make(map[string][]RankCoverage, len(m.Arrays))
	for i, am := range m.Arrays {
		f := newPieceFetcher(fs, tier, prefix, am.Name, m.PieceLocs[i], nil, 0, -1)
		covs := make([]RankCoverage, tasks)
		for r := 0; r < tasks; r++ {
			lo := am.Bytes * int64(r) / int64(tasks)
			hi := am.Bytes * int64(r+1) / int64(tasks)
			cov := RankCoverage{Rank: r}
			for j, l := range f.locs {
				if l.Off+l.Bytes <= lo || l.Off >= hi {
					continue
				}
				cov.Pieces++
				mem := f.held[j].ok
				disk := l.Where != TierMem && fs.Exists(f.fileOf(l))
				if mem {
					cov.Mem++
				}
				if disk {
					cov.Disk++
				}
				if !mem && !disk {
					cov.Lost++
				}
			}
			covs[r] = cov
		}
		out[am.Name] = covs
	}
	return out, nil
}
