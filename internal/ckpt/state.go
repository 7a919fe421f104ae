package ckpt

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"drms/internal/frame"
	"drms/internal/pfs"
)

// Control-plane snapshots. A StateStore persists a small table of named
// records (the resource coordinator's authoritative state: application
// specs, incarnations, recovery budgets, leases) through the same
// machinery application checkpoints use — rotated generations with
// meta-written-last commits, CRC-verified resolution with quarantine
// and fallback. The control plane eats its own dogfood: a crashed
// coordinator restarts from its latest verifiable generation exactly the
// way the applications it supervises do.
//
// On storage a generation is an ordinary checkpoint with a segment and
// no arrays: <base>.gN.seg holds the state image (DESIGN.md §3g: a
// magic, a version and the records sorted by key, so its bytes depend
// on the table alone), and <base>.gN.meta is the commit record carrying
// the segment's size and CRC. Every generation is a self-contained
// anchor: the table is a few kilobytes, already encoded in memory, so a
// delta would save only the write of bytes at hand. Earlier coordinators
// wrote gob images, some of them delta chains; Load refuses those with
// ErrLegacyFormat, and drmsfsck -repair commits the table at their head
// as one framed anchor. Verify, ResolveVerified,
// Rotation.Prune, CleanIncomplete, and drmsfsck all work on it
// unmodified.

// stateKeep is how many committed generations a StateStore retains: two
// would leave a corrupt newest generation a fallback; four leave three.
const stateKeep = 4

// StateStore writes and resolves control-plane snapshot generations
// under one base prefix. The zero value needs Base. A StateStore is safe
// for one writer; Load is independent and may run in a different
// process lifetime.
type StateStore struct {
	// Base is the user-facing prefix generations rotate under
	// ("rcstate.s0.g12" for shard 0's 13th snapshot).
	Base string

	mu      sync.Mutex
	lastGen int  // newest generation this store committed or loaded
	known   bool // lastGen is set
}

// The state image: stateMagic, stateVersion, and the records as (key,
// bytes) pairs in ascending key order.
const (
	stateMagic   = "DRMSstate"
	stateVersion = 1
)

func walkStateImage(c *frame.Codec, table map[string][]byte) {
	c.Head(stateMagic, stateVersion)
	keys := slices.Sorted(maps.Keys(table))
	frame.List(c, &keys, func(k *string) {
		v := table[*k]
		c.Str(k)
		if c.Bytes(&v); c.Dec {
			table[*k] = v
		}
	})
}

func encodeStateImage(table map[string][]byte) []byte {
	return frame.Encode(func(c *frame.Codec) { walkStateImage(c, table) })
}

// decodeStateImage reads an image's table; one that is not a frame is a
// gob image an earlier coordinator wrote.
func decodeStateImage(b []byte, prefix string) (map[string][]byte, error) {
	if !bytes.HasPrefix(b, []byte(stateMagic)) {
		return nil, fmt.Errorf("%w: %q holds a gob state image", ErrLegacyFormat, prefix)
	}
	table := map[string][]byte{}
	if err := frame.Decode(b, func(c *frame.Codec) { walkStateImage(c, table) }); err != nil {
		return nil, corrupt(prefix, segFile(prefix), -1, "state image does not decode: %v", err)
	}
	return table, nil
}

// Commit writes one snapshot generation holding the given records and
// returns its generation number. The write follows the checkpoint
// commit discipline — payload first, meta last via atomic rename — so
// a crash mid-commit never promotes torn state; CleanIncomplete sweeps
// the leftovers at the next startup. Older generations beyond the
// newest four are pruned.
func (s *StateStore) Commit(fs *pfs.System, records map[string][]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rot := Rotation{Base: s.Base, Keep: stateKeep}
	prefix := rot.NextPrefix(fs)
	_, gen, _ := GenOf(prefix)
	payload := encodeStateImage(records)
	total := int64(segHeader + len(payload))
	crc, err := writeSegmentFile(fs, segFile(prefix), 0, payload, total)
	if err != nil {
		return -1, err
	}
	m := Meta{Version: metaVersion, Mode: ModeDRMS, Tasks: 1,
		SegBytes: []int64{total}, SegCRC: []uint64{crc}}
	if err := writeMeta(fs, prefix, 0, m); err != nil {
		return -1, err
	}
	s.lastGen, s.known = gen, true
	rot.Prune(fs)
	return gen, nil
}

// Load resolves the newest generation that passes verification and
// returns its record table, generation number, and the prefixes
// quarantined on the way there. Resolution is the recovery supervisor's:
// the newest committed generation is verified (size and CRC against its
// meta, then its image's frame); one that fails is quarantined (renamed
// under ".bad.", its number burned) and the next older one is tried.
// ok=false when no verifiable snapshot exists at all. A legacy
// generation is intact, not corrupt: the walk stops there with
// ErrLegacyFormat until drmsfsck -repair rewrites the store.
func (s *StateStore) Load(fs *pfs.System) (records map[string][]byte, gen int, quarantined []string, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	Rotation{Base: s.Base}.CleanIncomplete(fs)
	s.known = false
	for {
		chosen, q, found, verr := ResolveVerified(fs, s.Base)
		quarantined = append(quarantined, q...)
		var m Meta
		var rerr error
		if found {
			if m, rerr = ReadMeta(fs, chosen, 0); rerr == nil {
				records, rerr = ReadStateImage(fs, chosen, &m, nil)
			}
		}
		if errors.Is(verr, ErrLegacyFormat) || errors.Is(rerr, ErrLegacyFormat) {
			return nil, -1, quarantined, false, cmp.Or(rerr, verr)
		}
		err = cmp.Or(err, verr, rerr)
		switch {
		case !found:
			return nil, -1, quarantined, false, err
		case rerr == nil:
			_, g, _ := GenOf(chosen)
			s.lastGen, s.known = g, true
			return records, g, quarantined, true, err
		}
		quarantined = append(quarantined, Quarantine(fs, chosen)...)
	}
}

// ReadStateImage reads the table of the generation under prefix with
// metadata m, its segment checked against m's CRC. An image that is not a
// frame, a gob image an earlier coordinator wrote, is legacy's to decode:
// drmsfsck -repair's, which walks their chains. With legacy nil it is
// ErrLegacyFormat.
func ReadStateImage(fs *pfs.System, prefix string, m *Meta, legacy func([]byte) (map[string][]byte, error)) (map[string][]byte, error) {
	if m.Mode != ModeDRMS || len(m.SegBytes) == 0 {
		return nil, fmt.Errorf("ckpt: %q is not a control-plane snapshot", prefix)
	}
	payload, crc, err := readSegmentFile(fs, prefix, segFile(prefix), 0, m.SegBytes[0])
	if err != nil {
		return nil, err
	}
	if crc != m.SegCRC[0] {
		return nil, corrupt(prefix, segFile(prefix), -1, "state crc %016x, metadata %016x", crc, m.SegCRC[0])
	}
	if legacy != nil && !bytes.HasPrefix(payload, []byte(stateMagic)) {
		return legacy(payload)
	}
	return decodeStateImage(payload, prefix)
}

// LastGen reports the newest generation this store has committed or
// loaded (-1 when none).
func (s *StateStore) LastGen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.known {
		return -1
	}
	return s.lastGen
}
