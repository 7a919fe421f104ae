package ckpt

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
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
// read-only. Lookup and Entries are its only reads.
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

// lookup returns the first replica valid accepts (shared, read-only),
// self's store tried first and the rest in ascending holder order, and
// whether self's store served it. Only the map reads hold t.mu: published
// payloads are immutable, so valid runs with the lock released, and a
// concurrent Remove or DropStore orders after the lookup.
func (t *MemTier) lookup(self int, prefix, arr string, index int, valid func(memEntry) bool) (data []byte, local, ok bool) {
	if t == nil {
		return nil, false, false
	}
	type replica struct {
		holder int
		memEntry
	}
	var buf [4]replica
	held := buf[:0]
	k := memKey{prefix: prefix, arr: arr, index: index}
	t.mu.Lock()
	for h, st := range t.stores {
		if e, ok := st.entries[k]; ok {
			held = append(held, replica{h, e})
		}
	}
	t.mu.Unlock()
	rank := func(r replica) int {
		if r.holder == self {
			return math.MinInt
		}
		return r.holder
	}
	slices.SortFunc(held, func(a, b replica) int { return cmp.Compare(rank(a), rank(b)) })
	for _, r := range held {
		if valid(r.memEntry) {
			return r.data, r.holder == self, true
		}
	}
	return nil, false, false
}

// Lookup returns a CRC-valid replica of one payload, trying self's store
// first (self -1: plain holder order); local reports whether self's store
// served it, so a restore charges the network only for what it pulls
// from a peer. The CRC is recomputed over the bytes, so a corrupted
// replica reads as absent. Misses are silent: callers tick the
// lost-pieces counter when a miss means data loss, not a pfs read.
func (t *MemTier) Lookup(self int, prefix, arr string, index int, want uint64) (data []byte, local, ok bool) {
	return t.lookup(self, prefix, arr, index, func(e memEntry) bool { return e.validFor(want) })
}

// validFor: published under want, and the bytes still hash to it.
func (e memEntry) validFor(want uint64) bool {
	return e.crc == want && crcOf(e.data) == want
}

// DropStore discards one holder's entire store — the tier-side effect
// of a node failure: every replica that lived in that node's memory is
// gone. Payloads whose other replicas survive remain fetchable.
func (t *MemTier) DropStore(holder int) {
	t.drop(func(h int, _ memKey) bool { return h == holder })
}

// Remove drops every replica belonging to one generation prefix, the
// tier half of rotation pruning and quarantine.
func (t *MemTier) Remove(prefix string) {
	t.drop(func(_ int, k memKey) bool { return k.prefix == prefix })
}

// drop discards every replica gone names.
func (t *MemTier) drop(gone func(holder int, k memKey) bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	var freed int64
	for h, st := range t.stores {
		for k, e := range st.entries {
			if gone(h, k) {
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
	slices.SortFunc(out, func(a, b TierEntry) int {
		return cmp.Or(strings.Compare(a.Arr, b.Arr), cmp.Compare(a.Index, b.Index))
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
