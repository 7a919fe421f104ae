package ckpt

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drms/internal/frame"
	"drms/internal/obs"
)

// Storage tiers a checkpoint payload can live in. The values are stored
// as they are (PieceLoc.Where, Meta.SegWhere), and zero is "on the
// parallel file system", what metas from before the tier meant.
const (
	TierPFS uint8 = 0 // payload in a pfs file (classic path)
	TierMem uint8 = 1 // payload only in peer memory (diskless generation)
)

// MemTier is the hot in-memory checkpoint tier (ReStore-style,
// DESIGN.md §3h): at commit time each canonical piece is replicated
// into k+1 peers' memory so a later incarnation can restore with a
// memory gather instead of a pfs reread. Stores are keyed by holder
// node id and model node RAM: they survive application incarnations
// (the process dies, the node's memory daemon does not) but are dropped
// wholesale when the node itself fails (DropStore, wired to the
// supervisor's TC-loss path). Published payloads are immutable; Lookup
// returns the shared backing slice and callers must treat it as
// read-only.
type MemTier struct {
	mu     sync.Mutex
	stores map[int]*memStore
	bytes  int64 // resident payload bytes summed over all stores
}

type memStore struct {
	entries map[memKey]memEntry
}

// memKey addresses one replicated payload: a piece (arr, index) or the
// segment payload (arr "", index -1) of one generation prefix.
type memKey struct {
	prefix, arr string
	index       int
}

type memEntry struct {
	data []byte // immutable after publish; shared across holder stores
	crc  uint64 // CRC-64/ECMA of data, recorded at publish
}

// segment payload key sentinel.
const segIndex = -1

var (
	tierReplicasTotal = obs.GetCounter("drms_ckpt_tier_replicas_total",
		"Payload replicas published into the in-memory checkpoint tier.")
	tierReplicaBytes = obs.GetHistogram("drms_ckpt_tier_replica_bytes",
		"Payload size per tier replica set published (bytes).", obs.ByteBuckets)
	tierReplicaSeconds = obs.GetHistogram("drms_ckpt_tier_replica_seconds",
		"Latency of replicating one payload into its holder set.", obs.LatencyBuckets)
	tierLostPieces = obs.GetCounter("drms_ckpt_tier_lost_pieces_total",
		"Tier lookups that found no CRC-valid replica (forces pfs fallback).")
)

var tierResidentBytes atomic.Int64

func init() {
	obs.GaugeFunc("drms_ckpt_tier_resident_bytes",
		"Bytes resident in the in-memory checkpoint tier across all stores.",
		func() float64 { return float64(tierResidentBytes.Load()) })
}

// NewMemTier returns an empty tier.
func NewMemTier() *MemTier {
	return &MemTier{stores: make(map[int]*memStore)}
}

// Publish replicates one payload into every holder's store, copying the
// bytes once (the copy is shared read-only across holders — replicas
// model redundancy against node loss, not against mutation). Holders
// are created on demand; duplicate holder ids collapse to one replica.
func (t *MemTier) Publish(holders []int, prefix, arr string, index int, data []byte, crc uint64) {
	if t == nil || len(holders) == 0 {
		return
	}
	start := time.Now()
	cp := append([]byte(nil), data...)
	k := memKey{prefix: prefix, arr: arr, index: index}
	var added int64
	t.mu.Lock()
	for _, h := range holders {
		st := t.stores[h]
		if st == nil {
			st = &memStore{entries: make(map[memKey]memEntry)}
			t.stores[h] = st
		}
		if old, ok := st.entries[k]; ok {
			added -= int64(len(old.data))
		}
		st.entries[k] = memEntry{data: cp, crc: crc}
		added += int64(len(cp))
	}
	t.bytes += added
	t.mu.Unlock()
	tierResidentBytes.Add(added)
	tierReplicasTotal.Inc()
	tierReplicaBytes.Observe(float64(len(cp)))
	tierReplicaSeconds.ObserveSince(start)
}

// replica is one holder's copy of a payload, snapshotted out of the
// store maps.
type replica struct {
	holder int
	memEntry
}

// replicas snapshots the surviving copies of one payload into buf, holder
// self's first and the rest in ascending holder order, so lookups are
// deterministic. Only the map reads happen under t.mu: published
// payloads are immutable, so callers CRC the snapshot with the lock
// released, and a concurrent Remove or DropStore orders after the lookup.
func (t *MemTier) replicas(self int, prefix, arr string, index int, buf []replica) []replica {
	if t == nil {
		return nil
	}
	k := memKey{prefix: prefix, arr: arr, index: index}
	t.mu.Lock()
	for h, st := range t.stores {
		if e, ok := st.entries[k]; ok {
			buf = append(buf, replica{h, e})
		}
	}
	t.mu.Unlock()
	rank := func(r replica) int {
		if r.holder == self {
			return math.MinInt
		}
		return r.holder
	}
	slices.SortFunc(buf, func(a, b replica) int { return cmp.Compare(rank(a), rank(b)) })
	return buf
}

// lookup returns the first replica that valid accepts — the shared
// backing array, read-only; local reports whether self's store served
// it — or ok=false. Misses are silent: for disk-resident payloads a miss
// just means a pfs read; callers tick the lost-pieces counter themselves
// when a miss means data loss.
func (t *MemTier) lookup(self int, prefix, arr string, index int, valid func(memEntry) bool) (data []byte, local, ok bool) {
	var buf [4]replica
	for _, r := range t.replicas(self, prefix, arr, index, buf[:0]) {
		if valid(r.memEntry) {
			return r.data, r.holder == self, true
		}
	}
	return nil, false, false
}

// Lookup returns a CRC-valid replica of the payload from any store. The
// CRC is recomputed over the bytes, not trusted from the publish record,
// so a corrupted replica reads as absent.
func (t *MemTier) Lookup(prefix, arr string, index int, wantCRC uint64) ([]byte, bool) {
	data, _, ok := t.LookupPrefer(-1, prefix, arr, index, wantCRC) // no node is -1: plain holder order
	return data, ok
}

// LookupPrefer is Lookup with locality attribution. The restore path
// records network traffic for the bytes a rank had to pull from a peer's
// store — with owner-aligned placement and an unchanged layout, nearly
// everything is local and a hot restore costs no modeled wire time at
// all.
func (t *MemTier) LookupPrefer(self int, prefix, arr string, index int, wantCRC uint64) (data []byte, local, ok bool) {
	return t.lookup(self, prefix, arr, index, func(e memEntry) bool { return e.validFor(wantCRC) })
}

// validFor: published under wantCRC, and the bytes still hash to it.
func (e memEntry) validFor(wantCRC uint64) bool {
	return e.crc == wantCRC && crcOf(e.data) == wantCRC
}

// LookupSelf returns a self-consistent replica — bytes matching the CRC
// recorded at publish time — without an expected CRC from the caller.
// The disk-segment hot path uses it: the metadata holds the padded
// file's CRC, not the payload's, so the caller validates by
// reconstructing the file CRC from the returned payload.
func (t *MemTier) LookupSelf(self int, prefix, arr string, index int) (data []byte, local, ok bool) {
	return t.lookup(self, prefix, arr, index, func(e memEntry) bool { return e.validFor(e.crc) })
}

// Check reports whether a CRC-valid replica survives (the first valid
// one settles it) without ticking the miss counter: verify probes
// speculatively.
func (t *MemTier) Check(prefix, arr string, index int, wantCRC uint64) bool {
	_, ok := t.Lookup(prefix, arr, index, wantCRC)
	return ok
}

// Replicas counts the surviving CRC-valid replicas of one payload.
func (t *MemTier) Replicas(prefix, arr string, index int, wantCRC uint64) int {
	var buf [4]replica
	n := 0
	for _, r := range t.replicas(-1, prefix, arr, index, buf[:0]) {
		if r.validFor(wantCRC) {
			n++
		}
	}
	return n
}

// DropStore discards one holder's entire store — the tier-side effect
// of a node failure: every replica that lived in that node's memory is
// gone. Payloads whose other replicas survive remain fetchable.
func (t *MemTier) DropStore(holder int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	var freed int64
	if st, ok := t.stores[holder]; ok {
		for _, e := range st.entries {
			freed += int64(len(e.data))
		}
		delete(t.stores, holder)
		t.bytes -= freed
	}
	t.mu.Unlock()
	tierResidentBytes.Add(-freed)
}

// Remove drops every replica belonging to one generation prefix, the
// tier half of rotation pruning and quarantine.
func (t *MemTier) Remove(prefix string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	var freed int64
	for _, st := range t.stores {
		for k, e := range st.entries {
			if k.prefix == prefix {
				freed += int64(len(e.data))
				delete(st.entries, k)
			}
		}
	}
	t.bytes -= freed
	t.mu.Unlock()
	tierResidentBytes.Add(-freed)
}

// ResidentBytes returns the payload bytes resident across all stores
// (replicas counted once per holder, as they cost each node's memory).
func (t *MemTier) ResidentBytes() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// TierEntry is one payload's residency, aggregated over stores — what
// `drmsfsck -tiers` lists. Arr "" / Index -1 is the segment payload.
type TierEntry struct {
	Arr      string
	Index    int
	Bytes    int64
	Replicas int // CRC-valid replicas surviving
	CRC      uint64
}

// Entries lists the tier residency of one generation prefix, sorted by
// (Arr, Index).
func (t *MemTier) Entries(prefix string) []TierEntry {
	if t == nil {
		return nil
	}
	held := make(map[memKey][]memEntry)
	t.mu.Lock()
	for _, st := range t.stores {
		for k, e := range st.entries {
			if k.prefix == prefix {
				held[k] = append(held[k], e)
			}
		}
	}
	t.mu.Unlock()
	out := make([]TierEntry, 0, len(held))
	for k, es := range held {
		te := TierEntry{Arr: k.arr, Index: k.index, Bytes: int64(len(es[0].data)), CRC: es[0].crc}
		for _, e := range es {
			if e.validFor(te.CRC) {
				te.Replicas++
			}
		}
		out = append(out, te)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Arr != out[j].Arr {
			return out[i].Arr < out[j].Arr
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// The tier file (DESIGN.md §3g): tierMagic, tierVersion, and one record
// per held payload in ascending (Holder, Prefix, Arr, Index) order.
const (
	tierMagic   = "DRMStier"
	tierVersion = 1
)

type tierFileRecord struct {
	Holder      int
	Prefix, Arr string
	Index       int
	CRC         uint64
	Data        []byte
}

func walkTierFile(c *frame.Codec, recs *[]tierFileRecord) {
	c.Head(tierMagic, tierVersion)
	if !c.Dec { // one spelling per tier: each payload once, in order
		slices.SortFunc(*recs, compareTierRecords)
		*recs = slices.CompactFunc(*recs, func(a, b tierFileRecord) bool { return compareTierRecords(a, b) == 0 })
	}
	frame.List(c, recs, func(r *tierFileRecord) {
		frame.Varint(c, &r.Holder)
		c.Str(&r.Prefix)
		c.Str(&r.Arr)
		frame.Varint(c, &r.Index)
		c.Uvarint(&r.CRC)
		c.Bytes(&r.Data)
	})
}

func compareTierRecords(a, b tierFileRecord) int {
	return cmp.Or(cmp.Compare(a.Holder, b.Holder), strings.Compare(a.Prefix, b.Prefix),
		strings.Compare(a.Arr, b.Arr), cmp.Compare(a.Index, b.Index))
}

// SaveFile snapshots the tier to a local file so `drmsfsck -tier` can
// audit memory-resident chains offline, mirroring the pfs -state
// snapshot.
func (t *MemTier) SaveFile(path string) error {
	t.mu.Lock()
	var recs []tierFileRecord
	for h, st := range t.stores {
		for k, e := range st.entries {
			recs = append(recs, tierFileRecord{Holder: h, Prefix: k.prefix,
				Arr: k.arr, Index: k.index, CRC: e.crc, Data: e.data})
		}
	}
	t.mu.Unlock()
	return os.WriteFile(path, frame.Encode(func(c *frame.Codec) { walkTierFile(c, &recs) }), 0o666)
}

// LoadTierFile restores a tier snapshot written by SaveFile; it accepts
// only what SaveFile writes.
func LoadTierFile(path string) (*MemTier, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []tierFileRecord
	if err := frame.Decode(b, func(c *frame.Codec) { walkTierFile(c, &recs) }); err != nil {
		return nil, fmt.Errorf("ckpt: decode tier snapshot: %w", err)
	}
	t := NewMemTier()
	for _, r := range recs {
		t.Publish([]int{r.Holder}, r.Prefix, r.Arr, r.Index, r.Data, r.CRC)
	}
	return t, nil
}
