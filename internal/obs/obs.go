// Package obs is the observability substrate of the live pipeline: a
// dependency-free metrics registry (atomic counters, gauges, fixed-bucket
// histograms, labeled families, and scrape-time function metrics) with a
// Prometheus-text-format exposition handler, plus liveness/readiness
// endpoints and a pprof mux for the daemon.
//
// Design constraints, in order:
//
//  1. Hot-path cost: incrementing a counter or observing a histogram value
//     is a handful of atomic operations, no locks, no allocation. Metric
//     handles are resolved once at wiring time, never per event.
//  2. No dependencies: the exposition format is the stable subset of the
//     Prometheus text format (HELP/TYPE lines, escaping, cumulative
//     histogram buckets), emitted with deterministic ordering so the output
//     is diffable across runs and testable against golden files.
//  3. Scrape-time reads: components that already keep their own atomic
//     stats (collectors, the BGP registry) are exposed through function
//     metrics that read those stats when /metrics is scraped, adding zero
//     cost to their hot paths.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family: a type, a help string, a label
// schema, and the child metrics keyed by their label values.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child
}

// child is one sample within a family (one combination of label values).
type child struct {
	labelValues []string

	// Counters store an integer count; gauges store float bits. fn, when
	// set, overrides the stored value at scrape time (function metrics).
	bits atomic.Uint64
	fn   func() float64

	// Histogram state (histogram families only).
	hist *histogram
}

// value returns the child's current scalar value.
func (c *child) value(typ metricType) float64 {
	if c.fn != nil {
		return c.fn()
	}
	if typ == typeCounter {
		return float64(c.bits.Load())
	}
	return math.Float64frombits(c.bits.Load())
}

const labelSep = "\xff"

func childKey(values []string) string { return strings.Join(values, labelSep) }

// getFamily returns the named family, creating it on first use.
// Re-requesting a name with a different type, label schema, or bucket
// layout panics: that is a wiring bug, not a runtime condition.
func (r *Registry) getFamily(name, help string, typ metricType, labels []string, buckets []float64) *family {
	mustValidName(name)
	for _, l := range labels {
		mustValidName(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, typ, f.typ))
		}
		if !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, was %v", name, labels, f.labels))
		}
		if !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labelValues: append([]string(nil), values...)}
	if f.typ == typeHistogram {
		c.hist = newHistogram(f.buckets)
	}
	f.children[key] = c
	return c
}

func mustValidName(name string) {
	if name == "" {
		panic("obs: empty metric or label name")
	}
	for i := 0; i < len(name); i++ {
		ch := name[i]
		ok := ch == '_' || ch == ':' ||
			(ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
			(i > 0 && ch >= '0' && ch <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric or label name %q", name))
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// snapshot returns the families sorted by name and, per family, the
// children sorted by label values — the deterministic exposition order.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	out := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		out = append(out, c)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return childKey(out[i].labelValues) < childKey(out[j].labelValues)
	})
	return out
}

// ---- Counter ----

// Counter is a monotonically increasing count.
type Counter struct{ c *child }

// Inc adds one.
func (c *Counter) Inc() { c.c.bits.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.c.bits.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.c.bits.Load() }

// Counter returns the unlabeled counter with the given name, creating it
// on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{r.getFamily(name, help, typeCounter, nil, nil).child(nil)}
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — zero hot-path cost for components that keep their own atomics.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.getFamily(name, help, typeCounter, nil, nil).child(nil).fn = fn
}

// CounterVec is a family of counters sharing a label schema.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.getFamily(name, help, typeCounter, labelNames, nil)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{v.f.child(labelValues)}
}

// WithFunc registers a scrape-time function child for the label values.
func (v *CounterVec) WithFunc(fn func() float64, labelValues ...string) {
	v.f.child(labelValues).fn = fn
}

// ---- Gauge ----

// Gauge is a value that can go up and down.
type Gauge struct{ c *child }

// Set stores v.
func (g *Gauge) Set(v float64) { g.c.bits.Store(math.Float64bits(v)) }

// Add adds delta (atomically, CAS loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.c.bits.Load()) }

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{r.getFamily(name, help, typeGauge, nil, nil).child(nil)}
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.getFamily(name, help, typeGauge, nil, nil).child(nil).fn = fn
}

// GaugeVec is a family of gauges sharing a label schema.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.getFamily(name, help, typeGauge, labelNames, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{v.f.child(labelValues)}
}

// WithFunc registers a scrape-time function child for the label values.
func (v *GaugeVec) WithFunc(fn func() float64, labelValues ...string) {
	v.f.child(labelValues).fn = fn
}

// ---- Histogram ----

// histogram is the shared bucket state of one histogram child.
type histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float bits, CAS
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	// Buckets are few and fixed: linear scan beats binary search on the
	// short bound lists used here and keeps the loop branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram accumulates observations into fixed buckets.
type Histogram struct{ c *child }

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.c.hist.observe(v) }

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.c.hist.count.Load() }

// Histogram returns the unlabeled histogram with the given name. buckets
// are ascending upper bounds; the +Inf bucket is implicit. Nil buckets
// default to DurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DurationBuckets
	}
	mustAscending(name, buckets)
	return &Histogram{r.getFamily(name, help, typeHistogram, nil, buckets).child(nil)}
}

func mustAscending(name string, buckets []float64) {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending", name))
		}
	}
}

// DurationBuckets covers sub-millisecond classification latencies through
// multi-minute training rounds.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// ExponentialBuckets returns n buckets starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExponentialBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// LinearBuckets returns n buckets starting at start, spaced width apart.
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("obs: LinearBuckets wants width > 0, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start += width
	}
	return out
}
