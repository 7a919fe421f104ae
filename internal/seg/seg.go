// Package seg models the data segment of a task: the per-process image
// the paper's checkpoints save. For a DRMS checkpoint one task's segment
// is saved and every restarted task loads it, restoring all replicated
// variables and the execution context (§2.2); for the conventional SPMD
// checkpoint every task saves its own segment.
//
// A real DRMS implementation dumps the process stack, heap, statics and
// registers. Go cannot portably dump its own image, so the segment is an
// explicit registry: applications register their replicated variables
// (any gob-encodable value) and the runtime records the execution context
// (which SOP, which iteration). The remaining regions of a real segment —
// storage for the local sections of distributed arrays (including shadow
// regions), message-passing system buffers, and private data — do not
// need their *contents* preserved across a DRMS restart, but they
// dominate the segment's *size*; the SizeModel accounts for them exactly
// as Table 4 of the paper decomposes them, and checkpoint files are
// padded to the modeled size so saved-state measurements (Table 3) and
// replayed timings (Tables 5-6) see 1997-realistic byte counts.
package seg

import (
	"bytes"
	"fmt"

	"drms/internal/frame"
)

// SizeModel decomposes a task's data segment exactly as Table 4 of the
// paper: local sections of distributed arrays, system-related storage
// (message-passing buffers), and private/replicated application data.
type SizeModel struct {
	// LocalSectionBytes is the storage for the mapped sections (assigned
	// plus shadow regions) of all distributed arrays in this task.
	LocalSectionBytes int64
	// SystemBytes is run-time system storage, mostly message-passing
	// buffers; the paper measures ~33.4 MB, identical across apps.
	SystemBytes int64
	// PrivateBytes is private and replicated application data.
	PrivateBytes int64
}

// Total returns the full segment size.
func (m SizeModel) Total() int64 {
	return m.LocalSectionBytes + m.SystemBytes + m.PrivateBytes
}

// PaperSystemBytes is the system-related storage the paper measures
// (34,972,228 bytes for all three applications).
const PaperSystemBytes = 34_972_228

// Context is the execution context a checkpoint captures: enough to
// re-enter the SOQ structure at the SOP where the checkpoint was taken.
type Context struct {
	// SOP labels the schedulable-and-observable point (the checkpoint
	// call site) the state belongs to.
	SOP string
	// Step is the application's iteration counter at the SOP.
	Step int
	// Tasks is the number of tasks that took the checkpoint.
	Tasks int
}

// Segment is one task's registry of replicated variables plus context
// and size model. The zero value is unusable; use New.
type Segment struct {
	vars  map[string]any // name -> pointer to the variable
	Model SizeModel
	Ctx   Context
}

// New returns an empty segment.
func New() *Segment {
	return &Segment{vars: make(map[string]any)}
}

// Register adds a replicated variable under the given name. ptr must be
// a non-nil pointer to a gob-encodable value; the variable's current
// value is captured at Encode time and overwritten at Decode time.
// Registering the same name twice replaces the pointer (a restarted task
// re-registers its variables).
func (s *Segment) Register(name string, ptr any) {
	if ptr == nil {
		panic(fmt.Sprintf("seg: nil pointer registered for %q", name))
	}
	s.vars[name] = ptr
}

// Payload is a segment as stored (DESIGN.md §3g): a frame of the context,
// the size model, the variables' names in ascending order and their
// blobs, each the gob encoding of the variable's value.
type Payload struct {
	Ctx   Context
	Model SizeModel
	Names []string
	Blobs [][]byte
}

const payloadMagic = "DRMSseg"

func (p *Payload) walk(c *frame.Codec) {
	c.Head(payloadMagic, 1)
	c.Str(&p.Ctx.SOP)
	frame.Varint(c, &p.Ctx.Step)
	frame.Varint(c, &p.Ctx.Tasks)
	frame.Varint(c, &p.Model.LocalSectionBytes)
	frame.Varint(c, &p.Model.SystemBytes)
	frame.Varint(c, &p.Model.PrivateBytes)
	frame.List(c, &p.Names, c.Str)
	frame.List(c, &p.Blobs, c.Bytes)
}

// Encode returns the payload's frame.
func (p *Payload) Encode() []byte { return frame.Encode(p.walk) }

// Legacy reports whether payload, or its first LegacyProbe bytes, is a
// segment an earlier build wrote: a gob record, without the frame's
// magic. Only drmsfsck -repair reads it.
func Legacy(payload []byte) bool { return !bytes.HasPrefix(payload, []byte(payloadMagic)) }

// LegacyProbe is how many opening bytes of a payload Legacy reads.
const LegacyProbe = len(payloadMagic)

// FileSize returns the size of the segment's checkpoint file: the payload
// plus padding up to the modeled segment size (a real implementation
// writes the whole image; the padding keeps byte counts honest).
func (s *Segment) FileSize(payloadLen int) int64 {
	return max(int64(payloadLen)+16, s.Model.Total())
}
