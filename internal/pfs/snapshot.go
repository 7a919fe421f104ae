package pfs

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
)

// Snapshot support: the file system's entire contents can be serialized
// and restored, so checkpointed state survives process boundaries (the
// paper's PIOFS is persistent by nature; this is our equivalent). Sparse
// zero chunks stay sparse on the wire; a materialized chunk travels as
// chunkSize bytes, its zero tail included, and loads without that tail.

type snapshotWire struct {
	Cfg   Config
	Files map[string]fileWire
}

type fileWire struct {
	Size   int64
	Chunks map[int64][]byte
}

// Save serializes the whole file system. Concurrent mutation during Save
// is excluded by the system lock; in-flight operations complete first.
func (s *System) Save(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	wire := snapshotWire{Cfg: s.cfg, Files: make(map[string]fileWire, len(s.files))}
	for name, f := range s.files {
		f.mu.RLock()
		fw := fileWire{Size: f.size, Chunks: make(map[int64][]byte, len(f.chunks))}
		for i, ch := range f.chunks {
			fw.Chunks[i] = make([]byte, chunkSize)
			copy(fw.Chunks[i], ch)
		}
		f.mu.RUnlock()
		wire.Files[name] = fw
	}
	return gob.NewEncoder(w).Encode(wire)
}

// ErrLegacySnapshot identifies snapshot files written by a retired
// pre-release encoder revision that stripped gob's type identifiers.
// Such files are not recoverable — the type definitions are gone — but
// they are reliably distinguishable from ordinary corruption, so callers
// can report "regenerate this snapshot" instead of "bad data".
var ErrLegacySnapshot = errors.New("pfs: legacy snapshot format (gob type identifiers stripped); regenerate the snapshot with the current encoder")

// isLegacyHead reports whether the first gob message of a snapshot starts
// with type id 0. Every stream encoding/gob produces opens with a type
// definition carrying a negative id (the first user-defined id is -64,
// wire byte 0x7f); a zero in that position is the signature of the
// retired stripped-id encoder, whose output today's decoder rejects with
// errors like "duplicate type received".
func isLegacyHead(head []byte) bool {
	return len(head) == 2 && head[0] > 0 && head[0] <= 0x7f && head[1] == 0
}

// Load restores a file system from a snapshot, replacing all current
// contents. The snapshot's geometry replaces the system's. A snapshot in
// the retired stripped-id format is reported as ErrLegacySnapshot.
func (s *System) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	head, _ := br.Peek(2)
	var wire snapshotWire
	if err := gob.NewDecoder(br).Decode(&wire); err != nil {
		if isLegacyHead(head) {
			return fmt.Errorf("%w (decode: %v)", ErrLegacySnapshot, err)
		}
		return fmt.Errorf("pfs: corrupt snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg = wire.Cfg
	s.files = make(map[string]*file, len(wire.Files))
	for name, fw := range wire.Files {
		f := &file{size: fw.Size}
		if len(fw.Chunks) > 0 {
			f.chunks = make(map[int64][]byte, len(fw.Chunks))
			for i, ch := range fw.Chunks {
				if len(ch) != chunkSize {
					return fmt.Errorf("pfs: snapshot chunk %d of %q has %d bytes", i, name, len(ch))
				}
				f.chunks[i] = bytes.Clone(bytes.TrimRight(ch, "\x00"))
			}
		}
		s.files[name] = f
	}
	return nil
}

// SaveFile writes a snapshot to the host file system (for tools that keep
// checkpoint state across process runs).
func (s *System) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := s.Save(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile restores a snapshot written by SaveFile.
func (s *System) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Load(bufio.NewReader(f))
}
