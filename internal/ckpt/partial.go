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
// rather than the pfs. The engine proves the plan safe on every task in
// its decision round, before anything is read — matching plan
// signatures, resolvable chain, surviving replicas for memory-only
// pieces — and a refused plan fails every task together with an
// "ineligible" error; the caller (drms) falls back to the full restart
// path.
package ckpt

import (
	"fmt"
	"slices"

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
	// Ranks lists the replacement ranks: the tasks whose assigned
	// sections must be loaded from the checkpoint. Must be identical on
	// every task (the needed-piece set is collective state).
	Ranks []int
	// NeedSegment makes this task load and decode the saved data segment
	// (replacement ranks). Survivors restore their segment from the
	// in-memory park snapshot instead and pass false.
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

// ReadDRMSPartial restores only the listed replacement ranks' assigned
// sections (plus, for tasks with NeedSegment, the saved data segment)
// from a DRMS checkpoint. Collective: every task of the communicator
// calls it — survivors participate in the redistribution but request no
// sections of their own. The task count must equal the checkpointing
// task count and the streaming options must reproduce the checkpoint's
// piece plan (PlanSigs must match): partial restore filters the writer's
// plan by piece index, so it never replans. Piece-level verification is
// unconditional — every loaded piece is checked against the
// checkpoint's per-piece checksums and the verdict agreed collectively;
// the whole-stream CRC is not checked (the stream is deliberately not
// read whole). Stats count only the bytes actually restored, with the
// tier split (TierMemBytes/TierPFSBytes) reduced cluster-wide — the
// byte counters that prove no full-state read happened.
func ReadDRMSPartial(fs *pfs.System, prefix string, comm *msg.Comm, sg *seg.Segment, arrays []ArrayRef, o stream.Options, po PartialRestoreOptions) (Meta, Stats, error) {
	return restoreDRMS(fs, prefix, comm, sg, arrays, o, restorePlan{tier: po.Tier, holders: po.Holders,
		subset: true, ranks: po.Ranks, segment: po.NeedSegment, verify: true})
}

// PartialEligible reports whether a partial restore of prefix over a
// tasks-wide communicator, loading the listed ranks' sections of the
// given arrays, is provably safe: nil, or the first disqualifier of the
// metadata (matchArrays) or of storage (partialReadable). The engine
// makes the same checks and agrees them in its decision round; this
// answers the question without a restore.
func PartialEligible(fs *pfs.System, tier *MemTier, prefix string, tasks int, arrays []ArrayRef, ranks []int, o stream.Options) error {
	m, err := ReadMeta(fs, prefix, 0)
	if err != nil {
		return err
	}
	refs, err := matchArrays(&m, prefix, arrays, tasks, o, true)
	if err != nil {
		return err
	}
	fetchers := make([]*pieceFetcher, len(refs))
	for i, a := range refs {
		needed, _ := neededPieces(a, tasks, ranks, o, m.Arrays[i].Bytes)
		fetchers[i] = newPieceFetcher(fs, tier, prefix, m.Arrays[i].Name, m.PieceLocs[i], needed, 0, -1)
	}
	return partialReadable(fs, tier, prefix, &m, fetchers)
}

// partialReadable reports whether storage can serve a subset restore
// of m: the segment readable in some tier, and every piece a fetcher
// needs resolvable — its CRC-valid replica for a memory-tier piece, an
// existing file otherwise (a pruned chain predecessor surfaces here as
// a missing piece file).
func partialReadable(fs *pfs.System, tier *MemTier, prefix string, m *Meta, fetchers []*pieceFetcher) error {
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
