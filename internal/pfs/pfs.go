// Package pfs is a functional, in-memory reproduction of the parallel
// file system the paper measures on (PIOFS on a 16-node IBM SP): files
// are striped round-robin over a set of server nodes, multiple clients
// read and write concurrently at arbitrary offsets (the seek capability
// parallel streaming requires, §3.2), and every operation can be recorded
// to an I/O trace. The trace is what internal/sim replays through a
// calibrated queueing model of PIOFS to regenerate the paper's timing
// tables; this package itself stores real bytes, in sparse chunks that
// hold only the bytes written into them, and is used by the functional
// tests and the live benchmarks.
package pfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Config fixes the geometry of the file system.
type Config struct {
	// Servers is the number of server nodes files are striped across.
	// Server s of a file holds stripe units u with u mod Servers == s.
	Servers int
	// StripeUnit is the size in bytes of one stripe unit (PIOFS calls
	// this the basic striping unit).
	StripeUnit int
}

// DefaultConfig mirrors the paper's platform: 16 servers, 64 KiB units.
func DefaultConfig() Config { return Config{Servers: 16, StripeUnit: 64 << 10} }

// System is a striped parallel file system shared by the tasks of an
// application. All methods are safe for concurrent use.
type System struct {
	cfg Config

	mu    sync.Mutex
	files map[string]*file

	// traceMu orders trace mutations; tr doubles as the lock-free "is a
	// trace active?" gate, so recording an operation with no trace active
	// (the common case outside measurement runs) costs one atomic load
	// instead of contending on a global mutex from every client.
	traceMu sync.Mutex
	tr      atomic.Pointer[Trace]
}

// chunkSize is the granularity of sparse file storage. Chunks that have
// only ever held zeros are not materialized, so the multi-megabyte
// zero-padded regions of checkpoint segment files (the paper's class A
// data segments run to 63-89 MB each) cost no memory while remaining
// fully readable. A materialized chunk holds only its bytes up to the
// end of the furthest write into it, a write's all-zero part past that
// end excepted, so a small file costs its length, not chunkSize, however
// far its padding runs.
const chunkSize = 64 << 10

type file struct {
	mu     sync.RWMutex
	size   int64
	chunks map[int64][]byte // chunk index -> its first bytes (at most chunkSize); the rest read as zeros
}

// writeLocked copies p into the file at off, materializing only chunks
// that receive non-zero bytes (or that already exist).
func (f *file) writeLocked(p []byte, off int64) {
	if off+int64(len(p)) > f.size {
		f.size = off + int64(len(p))
	}
	for n := int64(0); len(p) > 0; off, p = off+n, p[n:] {
		ci := off / chunkSize
		co := off % chunkSize
		n = min(int64(len(p)), chunkSize-co)
		part := p[:n]
		ch := f.chunks[ci]
		end := co + n
		// Past a chunk's length (all of a chunk not materialized) bytes
		// already read as zeros, so an all-zero part there is not stored.
		if past := max(co, int64(len(ch))); end > past && allZero(part[past-co:]) {
			if past == co {
				continue // nothing to store
			}
			end = past
		}
		if f.chunks == nil {
			f.chunks = make(map[int64][]byte)
		}
		if len(ch) == 0 && co == 0 {
			// A chunk a write opens is allocated by the copy, not
			// cleared first and then overwritten.
			f.chunks[ci] = bytes.Clone(part)
			continue
		}
		if end > int64(len(ch)) {
			if end > int64(cap(ch)) {
				// Grow geometrically, so a chunk written front to back in
				// small pieces copies each byte a bounded number of times.
				ch = append(make([]byte, 0, min(chunkSize, max(end, 2*int64(len(ch))))), ch...)
			}
			ch = ch[:end] // past len, a chunk's capacity has only ever held zeros
			f.chunks[ci] = ch
		}
		copy(ch[co:], part)
	}
}

// readLocked fills p from the file at off; unmaterialized chunks, and
// the bytes of a chunk past its length, read as zeros. The caller has
// checked bounds.
func (f *file) readLocked(p []byte, off int64) {
	for len(p) > 0 {
		ci := off / chunkSize
		co := off % chunkSize
		n := min(int64(len(p)), chunkSize-co)
		ch := f.chunks[ci]
		held := copy(p[:n], ch[min(co, int64(len(ch))):])
		clear(p[held:n])
		off += n
		p = p[n:]
	}
}

// allZero reports whether p contains only zero bytes. It gates chunk
// materialization on every write, so it runs over each checkpoint pad
// byte; comparing eight bytes per iteration keeps it off the profile.
func allZero(p []byte) bool {
	for len(p) >= 8 {
		if binary.LittleEndian.Uint64(p) != 0 {
			return false
		}
		p = p[8:]
	}
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// NewSystem creates an empty file system.
func NewSystem(cfg Config) *System {
	if cfg.Servers < 1 || cfg.StripeUnit < 1 {
		panic(fmt.Sprintf("pfs: invalid config %+v", cfg))
	}
	return &System{cfg: cfg, files: make(map[string]*file)}
}

// Config returns the system geometry.
func (s *System) Config() Config { return s.cfg }

// StartTrace begins recording operations into a fresh trace and returns
// it. Recording continues until StopTrace.
func (s *System) StartTrace() *Trace {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	t := NewTrace()
	s.tr.Store(t)
	return t
}

// StopTrace stops recording and returns the trace (nil if none active).
// Once StopTrace returns, no further operation can land in the returned
// trace, so the caller may read it without synchronization.
func (s *System) StopTrace() *Trace {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	t := s.tr.Load()
	s.tr.Store(nil)
	return t
}

// BeginPhase marks, in the active trace, that the client enters the named
// phase: the operations it records from now on belong to that phase.
// Phases are how the replay model knows which operations were concurrent
// (within a phase) versus ordered (across phases): the checkpoint engine
// brackets each logical step — "segment write", "array u" — in a phase.
// SPMD tasks all announce the same boundary; a client joins the first
// phase under that name opened after its own last one, so an operation
// lands in its own client's phase however far ahead the others have run.
// A client that has entered no phase records into the initial one.
func (s *System) BeginPhase(client int, name string) {
	if s.tr.Load() == nil {
		return
	}
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if t := s.tr.Load(); t != nil { // reload: the trace may have stopped before the lock
		t.beginPhase(client, name)
	}
}

func (s *System) record(op Op) {
	if s.tr.Load() == nil {
		return // no trace active: the hot path skips the lock entirely
	}
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if t := s.tr.Load(); t != nil {
		t.add(op)
	}
}

func (s *System) get(name string, create bool) (*file, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		if !create {
			return nil, fmt.Errorf("pfs: file %q does not exist", name)
		}
		f = &file{}
		s.files[name] = f
	}
	return f, nil
}

// Create truncates or creates the named file.
func (s *System) Create(name string) {
	f, _ := s.get(name, true)
	f.mu.Lock()
	f.size = 0
	f.chunks = nil
	f.mu.Unlock()
}

// Exists reports whether the named file exists.
func (s *System) Exists(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.files[name]
	return ok
}

// Remove deletes the named file if present.
func (s *System) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, name)
}

// Rename atomically renames a file, replacing any existing file at the
// new name, like POSIX rename(2). It is the commit primitive of the
// checkpoint layer: a fully written file appears under its final name in
// one step, so no reader ever observes a half-written version.
func (s *System) Rename(oldName, newName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[oldName]
	if !ok {
		return fmt.Errorf("pfs: rename %q: file does not exist", oldName)
	}
	delete(s.files, oldName)
	s.files[newName] = f
	return nil
}

// List returns the names of all files with the given prefix, sorted.
func (s *System) List(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for n := range s.files {
		if len(n) >= len(prefix) && n[:len(prefix)] == prefix {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Size returns the current length of the named file.
func (s *System) Size(name string) (int64, error) {
	f, err := s.get(name, false)
	if err != nil {
		return 0, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.size, nil
}

// WriteAt writes p into the named file at offset off on behalf of the
// given client node, creating the file and extending it with zeros as
// needed. Concurrent writers to disjoint byte ranges are the normal case
// during parallel streaming.
func (s *System) WriteAt(client int, name string, p []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("pfs: negative offset %d", off)
	}
	f, err := s.get(name, true)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.writeLocked(p, off)
	f.mu.Unlock()
	s.record(Op{Client: client, Write: true, File: name, Offset: off, Bytes: int64(len(p))})
	return nil
}

// ReadAt fills p from the named file at offset off on behalf of the given
// client node. Reads past the end return io.ErrUnexpectedEOF.
func (s *System) ReadAt(client int, name string, p []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("pfs: negative offset %d", off)
	}
	f, err := s.get(name, false)
	if err != nil {
		return err
	}
	f.mu.RLock()
	if off+int64(len(p)) > f.size {
		f.mu.RUnlock()
		return fmt.Errorf("pfs: read [%d,%d) past end %d of %q: %w",
			off, off+int64(len(p)), f.size, name, io.ErrUnexpectedEOF)
	}
	f.readLocked(p, off)
	f.mu.RUnlock()
	s.record(Op{Client: client, Write: false, File: name, Offset: off, Bytes: int64(len(p))})
	return nil
}

// RecordNet notes, in the active trace, that the given client sent n
// bytes over the network as part of the current phase (redistribution
// traffic during two-phase streaming). It is a no-op without an active
// trace and never moves data itself.
func (s *System) RecordNet(client int, n int64) {
	s.record(Op{Client: client, Net: true, Bytes: n})
}

// StoredBytes returns the bytes materialized across all files: per
// chunk, its bytes up to the last non-zero one. That is at most the sum
// of the file sizes, thanks to sparse zero chunks, and a snapshot round
// trip preserves it.
func (s *System) StoredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, f := range s.files {
		f.mu.RLock()
		for _, ch := range f.chunks {
			n += int64(len(bytes.TrimRight(ch, "\x00")))
		}
		f.mu.RUnlock()
	}
	return n
}
