package ckpt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

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
// no arrays: <base>.gN.seg holds the gob-encoded stateImage, and
// <base>.gN.meta is the commit record carrying the segment's size and
// CRC. Every generation this store writes is a self-contained anchor:
// the table is a few kilobytes, already encoded in memory, so a delta
// would save only the write of bytes at hand. Stores written by earlier
// coordinators carry gob metadata (Load refuses it until drmsfsck
// -repair upgrades it) and may hold delta generations (chain fields in
// the meta, a Base back-pointer in the image); Load still walks those
// chains, and the first commit after it is an anchor again. Verify, ResolveVerified, Rotation.Prune,
// CleanIncomplete, and drmsfsck all work on it unmodified.

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

// stateImage is one generation's payload. This store writes anchors
// only (Full, Base -1); Base and Deleted are read from delta generations
// an earlier coordinator wrote.
type stateImage struct {
	Full    bool              // anchor: Records is the complete table
	Base    int               // delta: the generation this extends (-1 for anchors)
	Records map[string][]byte // full table, or the dirty subset
	Deleted []string          // delta: records removed since Base
}

// Commit writes one snapshot generation holding the given records and
// returns its generation number. The write follows the checkpoint
// commit discipline — payload first, meta last via atomic rename — so
// a crash mid-commit never promotes torn state; CleanIncomplete sweeps
// the leftovers at the next startup. Older generations beyond the
// newest four are pruned (a legacy delta kept among them pins its
// bases).
func (s *StateStore) Commit(fs *pfs.System, records map[string][]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rot := Rotation{Base: s.Base, Keep: stateKeep}
	prefix := rot.NextPrefix(fs)
	_, gen, _ := GenOf(prefix)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&stateImage{Full: true, Base: -1, Records: records}); err != nil {
		return -1, fmt.Errorf("ckpt: state image for %q: %w", s.Base, err)
	}
	payload := buf.Bytes()
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

// Load resolves the newest generation whose whole chain passes
// verification and returns its record table, generation number, and the
// prefixes quarantined on the way there. Resolution is the recovery
// supervisor's: the newest committed generation is verified (size and
// CRC against its meta); a generation that fails — or, for a legacy
// delta, whose chain references a base that is missing or corrupt — is
// quarantined (renamed under ".bad.", its number burned) and the next
// older one is tried. ok=false when no verifiable snapshot exists at all.
func (s *StateStore) Load(fs *pfs.System) (records map[string][]byte, gen int, quarantined []string, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	Rotation{Base: s.Base}.CleanIncomplete(fs)
	for {
		chosen, q, found, verr := ResolveVerified(fs, s.Base)
		quarantined = append(quarantined, q...)
		if err == nil {
			err = verr
		}
		if !found {
			s.known = false
			return nil, -1, quarantined, false, err
		}
		recs, cerr := s.loadChain(fs, chosen)
		if cerr != nil {
			// The head verified but its chain did not resolve: quarantine
			// the head and fall back to an older generation.
			if err == nil {
				err = cerr
			}
			quarantined = append(quarantined, Quarantine(fs, chosen)...)
			continue
		}
		_, g, _ := GenOf(chosen)
		s.lastGen, s.known = g, true
		return recs, g, quarantined, true, err
	}
}

// loadChain materializes the record table at the given generation. An
// anchor is its own table; a legacy delta is resolved by walking its
// chain down to the anchor and overlaying each delta's dirty records and
// tombstones in order. Every generation on the chain is verified before
// its payload is trusted.
func (s *StateStore) loadChain(fs *pfs.System, prefix string) (map[string][]byte, error) {
	// Collect the chain head-first.
	var links []stateImage
	cur := prefix
	for depth := 0; ; depth++ {
		if depth > maxStateChain {
			return nil, fmt.Errorf("ckpt: state chain under %q exceeds %d links", s.Base, maxStateChain)
		}
		img, err := readStateImage(fs, cur)
		if err != nil {
			return nil, err
		}
		links = append(links, img)
		if img.Full {
			break
		}
		cur = fmt.Sprintf("%s.g%d", s.Base, img.Base)
		if err := Verify(fs, cur, 0); err != nil {
			return nil, err
		}
	}
	// Overlay anchor-first.
	records := make(map[string][]byte)
	for i := len(links) - 1; i >= 0; i-- {
		img := links[i]
		for _, name := range img.Deleted {
			delete(records, name)
		}
		for name, rec := range img.Records {
			records[name] = rec
		}
	}
	return records, nil
}

// maxStateChain bounds a delta walk: far beyond any anchor interval an
// earlier coordinator used, it turns a corrupt back-pointer cycle into
// an error instead of a hang.
const maxStateChain = 1024

// readStateImage reads and decodes one generation's payload.
func readStateImage(fs *pfs.System, prefix string) (stateImage, error) {
	var img stateImage
	m, err := ReadMeta(fs, prefix, 0)
	if err != nil {
		return img, err
	}
	if m.Mode != ModeDRMS || len(m.SegBytes) == 0 {
		return img, fmt.Errorf("ckpt: %q is not a control-plane snapshot", prefix)
	}
	payload, crc, err := readSegmentFile(fs, prefix, segFile(prefix), 0, m.SegBytes[0])
	if err != nil {
		return img, err
	}
	if crc != m.SegCRC[0] {
		return img, corrupt(prefix, segFile(prefix), -1, "state crc %016x, metadata %016x", crc, m.SegCRC[0])
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&img); err != nil {
		return img, fmt.Errorf("ckpt: corrupt state image %q: %w", prefix, err)
	}
	return img, nil
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
