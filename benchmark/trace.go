package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own tracing: a span around every call the driver or the
// application body makes into a layer. Spans stay in memory and are
// written out once, at exit. A nil *tracer (tracing off) and a nil *span
// are valid receivers that do nothing, so call sites carry no branches.

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Cycle  int    `json:"cycle"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`

	tr *tracer
}

type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// on gates recording per cycle: the traced run records every other
	// cycle so the same run yields traced and untraced checkpoint times.
	on    atomic.Bool
	cycle atomic.Int64
	// parent is the driver span body spans attach to: the body runs on
	// other goroutines than the driver operation that caused its work.
	parent atomic.Int64

	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now()}
	tr.on.Store(true)
	return tr
}

// begin opens a span under the given parent (nil = under the tracer's
// current driver span, or a root).
func (tr *tracer) begin(name string, parent *span) *span {
	if tr == nil || !tr.on.Load() {
		return nil
	}
	s := &span{ID: tr.nextID.Add(1), Cycle: int(tr.cycle.Load()), Name: name,
		Start: int64(time.Since(tr.t0)), tr: tr}
	if parent != nil {
		s.Parent = parent.ID
	} else {
		s.Parent = tr.parent.Load()
	}
	return s
}

func (tr *tracer) beginIf(cond bool, name string) *span {
	if !cond {
		return nil
	}
	return tr.begin(name, nil)
}

// driver opens a driver-side span and makes it the parent of body spans
// until it ends.
func (tr *tracer) driver(name string) *span {
	s := tr.begin(name, nil)
	if s != nil {
		tr.parent.Store(s.ID)
	}
	return s
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.End = int64(time.Since(s.tr.t0))
	s.tr.parent.CompareAndSwap(s.ID, s.Parent)
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s)
	s.tr.mu.Unlock()
}

func (s *span) dur() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.End - s.Start)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its children cover (children
// may overlap each other, so their union is measured, not their sum).
func (tr *tracer) selfTimes() map[string]time.Duration {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	spans := append([]*span(nil), tr.spans...)
	tr.mu.Unlock()
	kids := map[int64][]*span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End-s.Start) - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(p *span, kids []*span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, hi int64
	hi = p.Start
	for _, k := range kids {
		lo, end := max(k.Start, hi), min(k.End, p.End)
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return time.Duration(total)
}

// writeTo writes every span as one JSON array, ordered by start time.
func (tr *tracer) writeTo(path string) error {
	tr.mu.Lock()
	spans := append([]*span(nil), tr.spans...)
	tr.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
