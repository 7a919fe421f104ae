// Package obs is the runtime's observability layer: a dependency-free
// metrics registry (counters, gauges, bounded histograms) with atomic
// hot paths, rendered in the Prometheus text exposition format.
//
// The paper judges the checkpointing strategy on recovery latency and
// checkpoint overhead (Tables 3-5); this package makes those quantities
// scrapeable from a live installation instead of reconstructed from
// logs. Instrumented packages register their metrics at init time under
// the drms_* namespace and update them on the hot path with a single
// atomic op — no locks, no allocation, so instrumentation cost stays
// far below the noise floor of the operations it measures.
//
// The package deliberately uses only the standard library (the obs row of
// TestArchitecture): the runtime must not grow a metrics dependency.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A metric knows how to render itself in Prometheus text format.
type metric interface {
	metricType() string // "counter" | "gauge" | "histogram"
	render(w io.Writer, name string)
}

type entry struct {
	m    metric
	help string
}

// Registry is a named collection of metrics. The zero value is not
// usable; call NewRegistry. Registration is get-or-create and
// idempotent; updating registered metrics is lock-free.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*entry)}
}

// Default is the process-wide registry every instrumented package
// registers into; drmsd exports it over HTTP.
var Default = NewRegistry()

// validName accepts a bare metric name, or — for scalar metrics — a name
// carrying one fixed label block, e.g.
// drms_ckpt_tier_restore_total{tier="mem"}. A labeled name is a distinct
// registry entry whose label block is part of its identity: the registry
// stays a flat map and the hot path stays a single atomic, which is all
// the fixed-cardinality label sets the runtime needs (restore source,
// scheme, tier). Histograms reject label blocks: their renderer appends
// _bucket{le=...} suffixes that cannot nest inside an existing block.
func validName(name string) bool {
	base, labels, ok := splitLabels(name)
	if !ok || !validBareName(base) {
		return false
	}
	return labels == "" || validLabels(labels)
}

func validBareName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// splitLabels separates a metric name from its optional {…} label block.
// ok=false when braces are present but malformed (no closing brace at the
// end, or an opening brace mid-name).
func splitLabels(name string) (base, labels string, ok bool) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, "", !strings.Contains(name, "}")
	}
	if !strings.HasSuffix(name, "}") {
		return name, "", false
	}
	return name[:i], name[i+1 : len(name)-1], true
}

// validLabels checks a label block's interior: comma-separated
// key="value" pairs, keys in the metric-name charset, values free of
// quotes, backslashes, and newlines (no escaping machinery).
func validLabels(labels string) bool {
	for _, pair := range strings.Split(labels, ",") {
		k, v, found := strings.Cut(pair, "=")
		if !found || !validBareName(k) {
			return false
		}
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' ||
			strings.ContainsAny(v[1:len(v)-1], "\"\\\n") {
			return false
		}
	}
	return true
}

// register get-or-creates a metric. A name collision across metric
// types is a programming error and panics at init time.
func (r *Registry) register(name, help string, mk func() metric) metric {
	if !validName(name) {
		panic("obs: invalid metric name " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok {
		m := mk()
		if e.m.metricType() != m.metricType() {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)",
				name, m.metricType(), e.m.metricType()))
		}
		return e.m
	}
	m := mk()
	r.metrics[name] = &entry{m: m, help: help}
	return m
}

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use and lock-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricType() string { return "counter" }
func (c *Counter) render(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, c.Value())
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, func() metric { return &Counter{} }).(*Counter)
}

// Gauge is a value that can go up and down. Stored as float64 bits; all
// methods are lock-free.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by d (CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) render(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.Value()))
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, func() metric { return &Gauge{} }).(*Gauge)
}

// Histogram is a fixed-bucket cumulative histogram. Observe is
// lock-free: a binary search over the (immutable) bounds plus two
// atomic adds and a CAS loop for the sum.
type Histogram struct {
	bounds []float64 // upper bounds, strictly increasing; +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start; the idiomatic
// latency hook: defer-friendly as obs.SinceSeconds or direct.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) render(w io.Writer, name string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatFloat(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}

// Histogram registers (or finds) a histogram with the given upper
// bounds (must be sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if strings.ContainsAny(name, "{}") {
		panic("obs: histogram " + name + " cannot carry a label block")
	}
	return r.register(name, help, func() metric {
		b := append([]float64(nil), bounds...)
		if !sort.Float64sAreSorted(b) {
			panic("obs: histogram bounds for " + name + " not sorted")
		}
		return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	}).(*Histogram)
}

// funcMetric reads its value at scrape time — for values that already
// live elsewhere (plan-cache hit counters, pool sizes, uptime).
type funcMetric struct {
	typ string
	f   func() float64
}

func (m *funcMetric) metricType() string { return m.typ }
func (m *funcMetric) render(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", name, formatFloat(m.f()))
}

// GaugeFunc registers a gauge whose value is computed by f at scrape
// time. Re-registering the same name replaces f.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.registerFunc(name, help, "gauge", f)
}

// CounterFunc registers a counter whose value is computed by f at
// scrape time; f must be monotonic. Re-registering replaces f.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.registerFunc(name, help, "counter", f)
}

func (r *Registry) registerFunc(name, help, typ string, f func() float64) {
	if !validName(name) {
		panic("obs: invalid metric name " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok {
		if fm, isFunc := e.m.(*funcMetric); isFunc && fm.typ == typ {
			fm.f = f
			return
		}
		panic(fmt.Sprintf("obs: metric %q re-registered as %s func", name, typ))
	}
	r.metrics[name] = &entry{m: &funcMetric{typ: typ, f: f}, help: help}
}

// Value returns a scalar view of the named metric for tests and
// snapshots: a counter's count, a gauge's value, a func's reading, a
// histogram's sample count. ok is false for unknown names.
func (r *Registry) Value(name string) (v float64, ok bool) {
	r.mu.Lock()
	e, found := r.metrics[name]
	r.mu.Unlock()
	if !found {
		return 0, false
	}
	switch m := e.m.(type) {
	case *Counter:
		return float64(m.Value()), true
	case *Gauge:
		return m.Value(), true
	case *Histogram:
		return float64(m.Count()), true
	case *funcMetric:
		return m.f(), true
	}
	return 0, false
}

// WritePrometheus renders every metric in the text exposition format,
// sorted by name so scrapes are diffable.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	entries := make(map[string]*entry, len(r.metrics))
	for name, e := range r.metrics {
		entries[name] = e
	}
	r.mu.Unlock()
	sort.Strings(names)
	// Labeled variants of one base metric (name{k="v"}) sort adjacently
	// after the bare base; HELP/TYPE describe the base series once, not
	// once per label combination.
	lastBase := ""
	for _, name := range names {
		e := entries[name]
		base, _, _ := splitLabels(name)
		if base != lastBase {
			if e.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", base, e.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", base, e.m.metricType())
			lastBase = base
		}
		e.m.render(w, name)
	}
}

// Render returns the registry as Prometheus text (the "stats" snapshot
// the control protocol ships to drmsctl).
func (r *Registry) Render() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// formatFloat renders a float the way Prometheus expects: integers
// without a decimal point, +Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start>0, factor>1, n>=1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets spans 1µs..~17s — collective ops at the bottom,
// checkpoint/recovery cycles at the top.
var LatencyBuckets = ExpBuckets(1e-6, 4, 13)

// ByteBuckets spans 256B..~4GiB for piece/transfer sizes.
var ByteBuckets = ExpBuckets(256, 8, 9)

// Package-level constructors on the Default registry.

// GetCounter registers (or finds) a counter on Default.
func GetCounter(name, help string) *Counter { return Default.Counter(name, help) }

// GetGauge registers (or finds) a gauge on Default.
func GetGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// GetHistogram registers (or finds) a histogram on Default.
func GetHistogram(name, help string, bounds []float64) *Histogram {
	return Default.Histogram(name, help, bounds)
}

// GaugeFunc registers a scrape-time gauge on Default.
func GaugeFunc(name, help string, f func() float64) { Default.GaugeFunc(name, help, f) }

// CounterFunc registers a scrape-time counter on Default.
func CounterFunc(name, help string, f func() float64) { Default.CounterFunc(name, help, f) }
