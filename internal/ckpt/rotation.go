package ckpt

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"drms/internal/pfs"
)

// Rotation manages a bounded history of checkpoints under one base
// prefix, the operational pattern behind §3's "a different prefix can be
// used each time, allowing the application to maintain multiple
// checkpointed states concurrently": generation k lands under
// "<base>.g<k>", and generations older than Keep are deleted after the
// new one is safely on storage. The previous generation stays intact
// while the next is written, and with Keep >= 2 the recovery supervisor
// has a fallback when the newest generation turns out to be corrupt.
//
// Generation numbers may have gaps: a corrupt generation quarantined by
// the supervisor (renamed under "<gen>.bad") leaves a hole, and every
// operation here counts committed generations, never numeric distance.
type Rotation struct {
	Base string
	Keep int // generations retained (minimum 1)
	// Tier, if non-nil, is the hot in-memory tier holding this
	// rotation's diskless generations: pruning and torn-state cleanup
	// drop a generation's peer-memory replicas alongside its files, and
	// the prune's retention logic is tier-aware (a run of memory-only
	// generations always pins a disk-resident fallback).
	Tier *MemTier
}

// quarantineMark is the path component that moves a generation's files
// out of the committed namespace: "<base>.g2.meta" becomes
// "<base>.g2.bad.meta". Quarantined files are invisible to Latest,
// CleanIncomplete, and Prune, but stay on storage for forensics.
const quarantineMark = ".bad."

// generation returns the prefix of generation k.
func (r Rotation) generation(k int) string {
	return fmt.Sprintf("%s.g%d", r.Base, k)
}

// GenOf parses a rotated generation prefix "<base>.g<k>" into its base
// and generation number. ok=false when the prefix is not generation-
// shaped (a plain user prefix).
func GenOf(prefix string) (base string, gen int, ok bool) {
	i := strings.LastIndex(prefix, ".g")
	if i < 0 {
		return prefix, 0, false
	}
	var g int
	if n, err := fmt.Sscanf(prefix[i+2:], "%d", &g); n != 1 || err != nil ||
		prefix[i+2:] != fmt.Sprintf("%d", g) {
		return prefix, 0, false
	}
	return prefix[:i], g, true
}

// genBase is GenOf for piece-location resolution: a non-rotated prefix
// is its own base, at generation -1 (PieceLoc.Gen's "own prefix" mark).
func genBase(prefix string) (base string, gen int) {
	if b, g, ok := GenOf(prefix); ok {
		return b, g
	}
	return prefix, -1
}

// scan lists the rotation's storage once and groups every file name
// under the base by generation number — committed, torn and quarantined
// files alike. Each rotation query is one scan whatever the generation
// numbers have grown to: a listing costs O(files in the store), so none
// may be repeated per generation.
func (r Rotation) scan(fs *pfs.System) map[int][]string {
	ckptRotationScans.Inc()
	prefix := r.Base + ".g"
	byGen := map[int][]string{}
	for _, name := range fs.List(prefix) {
		var g int
		if n, _ := fmt.Sscanf(name[len(prefix):], "%d.", &g); n == 1 {
			byGen[g] = append(byGen[g], name)
		}
	}
	return byGen
}

// Latest returns the newest complete generation's number and prefix;
// ok=false when none exists. Gaps in the numbering (pruned or
// quarantined generations) are skipped over.
func (r Rotation) Latest(fs *pfs.System) (k int, prefix string, ok bool) {
	return NewRotationView(r).Latest(fs)
}

// NextPrefix returns the prefix the next checkpoint should use: one past
// every generation number in use, committed or not, so a quarantined
// newest generation is never overwritten.
func (r Rotation) NextPrefix(fs *pfs.System) string {
	return NewRotationView(r).NextPrefix(fs)
}

// Prune removes committed generations beyond Keep, newest retained
// first — counting generations that actually exist, not numeric
// distance, so a gap (e.g. a quarantined generation between two live
// ones) never causes the fallback generation to be deleted. Chained
// generations pin their dependencies: a generation a retained one
// back-points into survives pruning even when older than the Keep
// horizon. Call it after a successful checkpoint (task 0 only —
// pruning is not collective). Quarantined generations are never
// touched.
func (r Rotation) Prune(fs *pfs.System) {
	NewRotationView(r).Prune(fs)
}

// genInfo is what the prune needs to know about one committed
// generation: its chain dependencies and whether it is memory-resident
// (a diskless generation whose payloads live only in the tier).
type genInfo struct {
	deps []int
	mem  bool
}

// pruneGens removes the prunable prefix of gens (the committed
// generations, ascending), retaining the newest Keep plus —
// transitively — every generation a retained one depends on for
// carried-forward pieces. The walk is a fixpoint because retained
// dependencies are themselves fallback candidates for recovery, so
// their own dependencies must survive too.
//
// The retention is tier-aware: when every retained generation is
// memory-resident (volatile — a node failure can void them all), the
// newest disk-resident generation and its transitive dependencies are
// pinned as well, so the rotation never loses its last durable restart
// point to a prune. This covers memory-resident anchors too, which
// carry no dependency edge to any disk generation. A generation kept
// only as that fallback is kept for its disk copy, so its replicas in
// peer memory are dropped: the tier would hold the durable anchor twice.
//
// info resolves a generation's genInfo (RotationView.Prune's cache).
// Returns the generations actually removed.
func (r Rotation) pruneGens(fs *pfs.System, gens []int, info func(g int) genInfo) []int {
	keep := max(r.Keep, 1)
	if len(gens) <= keep {
		return nil
	}
	need := map[int]bool{}
	memSeen, diskSeen := false, false
	var disk []int // the disk-resident generations expand added
	var expand func(g int)
	expand = func(g int) {
		if need[g] {
			return
		}
		need[g] = true
		gi := info(g)
		if gi.mem {
			memSeen = true
		} else {
			diskSeen = true
			disk = append(disk, g)
		}
		for _, d := range gi.deps {
			expand(d)
		}
	}
	for _, g := range gens[len(gens)-keep:] {
		expand(g)
	}
	if memSeen && !diskSeen {
		for i := len(gens) - 1; i >= 0; i-- {
			if g := gens[i]; !need[g] && !info(g).mem {
				expand(g)
				break
			}
		}
		for _, g := range disk { // pinned as the fallback alone
			r.Tier.Remove(r.generation(g))
		}
	}
	var removed []int
	for _, g := range gens[:len(gens)-keep] {
		if !need[g] {
			p := r.generation(g)
			Remove(fs, p)
			r.Tier.Remove(p)
			removed = append(removed, g)
		}
	}
	return removed
}

// chainInfo reads the prune-relevant facts of one generation: nil deps
// for anchors and for metas ReadMeta refuses (a legacy checkpoint is an
// anchor; a committed generation's meta is atomic, so an unreadable one
// is already unrecoverable — nothing to pin), plus its memory residency.
func chainInfo(fs *pfs.System, prefix string) genInfo {
	m, err := ReadMeta(fs, prefix, 0)
	if err != nil {
		return genInfo{}
	}
	return genInfo{deps: m.Deps, mem: m.SegWhere == TierMem}
}

// CleanIncomplete deletes the files of generations that were started but
// never committed — data or temporary files present with no meta file, as
// a checkpoint interrupted by a failure leaves them. Meta commits are
// atomic (see writeMeta), so "no meta" is a reliable torn-state marker.
// Quarantined generations are deliberately meta-less under their
// committed name and are left alone. Call it on restart, before taking
// new checkpoints; it must not run concurrently with a checkpoint in
// progress, whose generation is legitimately meta-less until commit.
// Returns the prefixes cleaned.
func (r Rotation) CleanIncomplete(fs *pfs.System) []string {
	byGen := r.scan(fs)
	var cleaned []string
	for _, g := range slices.Sorted(maps.Keys(byGen)) {
		p := r.generation(g)
		if existsDirect(fs, p) {
			continue
		}
		torn := false
		for _, name := range byGen[g] {
			if strings.HasPrefix(name, p+".") && !strings.HasPrefix(name, p+quarantineMark) {
				fs.Remove(name)
				torn = true
			}
		}
		if torn {
			r.Tier.Remove(p) // a torn generation's replicas are garbage too
			cleaned = append(cleaned, p)
		}
	}
	return cleaned
}

// Generations lists the complete generations, oldest first.
func (r Rotation) Generations(fs *pfs.System) []string {
	var out []string
	for _, g := range NewRotationView(r).load(fs) {
		out = append(out, r.generation(g))
	}
	return out
}

// Quarantine moves every file of the checkpoint under prefix out of the
// committed namespace: "<prefix>.X" becomes "<prefix>.bad.X". The
// generation stops being resolvable (its meta no longer exists under the
// committed name) but its bytes stay on storage for diagnosis. Returns
// the quarantined file names (their new names).
func Quarantine(fs *pfs.System, prefix string) []string {
	var moved []string
	for _, name := range fs.List(prefix + ".") {
		if strings.HasPrefix(name, prefix+quarantineMark) {
			continue // already quarantined
		}
		dst := prefix + quarantineMark + name[len(prefix)+1:]
		if err := fs.Rename(name, dst); err == nil {
			moved = append(moved, dst)
		}
	}
	if len(moved) > 0 {
		ckptQuarantines.Inc()
	}
	return moved
}

// ResolveVerified maps a user-facing checkpoint prefix to the newest
// committed generation that passes a full integrity check, quarantining
// every newer generation that fails it (rename to "<gen>.bad.*") so the
// next resolution — and the next checkpoint numbering — skips it. This is
// the restart point the recovery supervisor uses: a corrupt newest
// generation falls back to the next-older one instead of failing the
// recovery. Non-rotated prefixes verify in place (no quarantine: there is
// nothing to fall back to). Returns the chosen prefix, the prefixes
// quarantined along the way, and ok=false when no verifiable state
// exists — firstErr then carries the first integrity failure seen, the
// root cause to report upward. A legacy generation (ErrLegacyFormat) is
// intact, not corrupt: the walk stops there and returns that error,
// quarantining nothing for it, because the fix is an upgrade.
func ResolveVerified(fs *pfs.System, prefix string) (chosen string, quarantined []string, ok bool, firstErr error) {
	return ResolveVerifiedTier(fs, nil, prefix)
}

// ResolveVerifiedTier is ResolveVerified with the hot in-memory tier
// available: memory-resident generations resolve from surviving peers'
// replica sets (CRC-checked, chain-aware), and fall out of contention —
// quarantined, their stale replicas dropped — exactly like corrupt disk
// generations when fewer than one replica of some payload survived. The
// supervisor's restart path goes through here: a healthy tier resolves
// the newest (usually memory-only) generation for a millisecond peer
// restore; after node losses the walk falls back to the newest
// verifiable disk generation.
func ResolveVerifiedTier(fs *pfs.System, tier *MemTier, prefix string) (chosen string, quarantined []string, ok bool, firstErr error) {
	if existsDirect(fs, prefix) {
		if err := VerifyTier(fs, tier, prefix, 0); err != nil {
			return prefix, nil, false, err
		}
		return prefix, nil, true, nil
	}
	rot := Rotation{Base: prefix}
	gens := NewRotationView(rot).load(fs)
	for i := len(gens) - 1; i >= 0; i-- {
		p := rot.generation(gens[i])
		err := VerifyTier(fs, tier, p, 0)
		if err == nil {
			return p, quarantined, true, firstErr
		}
		if errors.Is(err, ErrLegacyFormat) {
			return prefix, quarantined, false, err
		}
		if firstErr == nil {
			firstErr = err
		}
		QuarantineTier(fs, tier, p)
		quarantined = append(quarantined, p)
	}
	return prefix, quarantined, false, firstErr
}

// QuarantineTier is Quarantine plus the tier half: the generation's
// peer-memory replicas are dropped — they failed to verify or belong to
// a state no longer trusted, and unlike the renamed files they occupy
// memory worth reclaiming immediately.
func QuarantineTier(fs *pfs.System, tier *MemTier, prefix string) []string {
	tier.Remove(prefix)
	return Quarantine(fs, prefix)
}

// RotationView is a Rotation plus a cached directory scan, for the
// commit paths (the DRMS writer's per-prefix view, the StateStore's),
// which consult the rotation several times per generation: the delta
// base, the next prefix, the post-commit prune. Rotation's queries are
// a fresh view's, each an O(files) listing; the view lists once, then
// maintains the cached state through the mutations it itself performs.
//
// Correct only under the invariant the rotation already requires: a
// single writer (rank 0) creates, commits, and prunes generations. An
// out-of-band mutation (quarantine by a supervisor, fsck repair) must
// be followed by a fresh view (NewRotationView). Not safe for concurrent
// use.
type RotationView struct {
	Rot     Rotation
	scanned bool
	gens    []int // committed generations, ascending
	maxSeen int   // highest generation number ever observed or reserved
	// info caches each committed generation's prune-relevant facts
	// (chain dependencies, tier residency), immutable like its meta:
	// without it the chain-aware prune re-reads one meta per retained
	// generation per commit.
	info map[int]genInfo
	// lastMeta/lastGen cache the newest committed generation's metadata
	// when the writer hands it over (NoteCommittedMeta): the next delta
	// checkpoint's base is exactly what this writer just wrote, so the
	// commit path never re-reads its own output.
	lastMeta *Meta
	lastGen  int
}

// NewRotationView returns a view over rot; storage is not touched until
// the first query.
func NewRotationView(rot Rotation) *RotationView {
	return &RotationView{Rot: rot, info: map[int]genInfo{}}
}

// load makes the view's one scan and returns the committed
// (meta-bearing, non-quarantined) generations, ascending — gaps are
// natural: quarantine and pruning both leave holes in the numbering —
// and notes the highest number present (complete, torn or quarantined).
func (v *RotationView) load(fs *pfs.System) []int {
	if v.scanned {
		return v.gens
	}
	v.maxSeen = -1
	for g := range v.Rot.scan(fs) {
		v.maxSeen = max(v.maxSeen, g)
		if existsDirect(fs, v.Rot.generation(g)) {
			v.gens = append(v.gens, g)
		}
	}
	slices.Sort(v.gens)
	v.scanned = true
	return v.gens
}

// Latest is Rotation.Latest on the cached listing.
func (v *RotationView) Latest(fs *pfs.System) (k int, prefix string, ok bool) {
	v.load(fs)
	if len(v.gens) == 0 {
		return 0, "", false
	}
	g := v.gens[len(v.gens)-1]
	return g, v.Rot.generation(g), true
}

// NextPrefix reserves and returns the next generation prefix. The
// reservation advances the cached high-water mark immediately, so a
// failed attempt's number is never reused — exactly what a fresh scan
// would conclude from the attempt's torn files.
func (v *RotationView) NextPrefix(fs *pfs.System) string {
	v.load(fs)
	v.maxSeen++
	return v.Rot.generation(v.maxSeen)
}

// NoteCommittedMeta records that prefix's generation committed, with
// the metadata the writer committed (Stats.Meta), if any. The single
// writer calls it after its meta rename: the cache stays current without
// a re-scan, and the metadata primes the dependency and delta-base
// caches, so the next checkpoint's prune and base resolution cost no
// storage reads.
func (v *RotationView) NoteCommittedMeta(prefix string, m *Meta) {
	_, g, ok := GenOf(prefix)
	if !ok {
		return
	}
	if v.scanned { // otherwise the next load sees the commit on storage
		v.gens = append(v.gens, g) // reservations are monotonic: stays sorted
		v.maxSeen = max(v.maxSeen, g)
	}
	if m != nil {
		v.info[g] = genInfo{deps: m.Deps, mem: m.SegWhere == TierMem}
		v.lastMeta, v.lastGen = m, g
	}
}

// CommittedMeta returns the cached metadata of prefix, if it is the
// newest generation this view saw committed (nil otherwise — callers
// fall back to ReadMeta).
func (v *RotationView) CommittedMeta(prefix string) *Meta {
	if v.lastMeta != nil && prefix == v.Rot.generation(v.lastGen) {
		return v.lastMeta
	}
	return nil
}

// Prune is Rotation.Prune (chain-aware, tier-aware) on the cached
// listing, and removes the pruned generations from the cache. Generation
// facts are resolved through the view's info cache, which each commit
// primes (NoteCommittedMeta), so at steady state a prune reads no meta.
func (v *RotationView) Prune(fs *pfs.System) {
	v.load(fs)
	removed := v.Rot.pruneGens(fs, v.gens, func(g int) genInfo {
		gi, ok := v.info[g]
		if !ok {
			gi = chainInfo(fs, v.Rot.generation(g))
			v.info[g] = gi
		}
		return gi
	})
	for _, g := range removed {
		delete(v.info, g)
	}
	v.gens = slices.DeleteFunc(v.gens, func(g int) bool { return slices.Contains(removed, g) })
}
