// Package obs is the reproduction's dependency-free observability core:
// atomic counters, gauges, and fixed-bucket histograms collected into a
// Registry of labeled families, with Prometheus text-format exposition,
// expvar publishing, and a per-engagement event tracer.
//
// Every metric type is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, or *Tracer are no-ops, so instrumented code pays one nil
// check and nothing else when observability is off. Instrumentation
// hooks throughout dsnaudit hold nil metrics by default and only become
// live when a Registry is attached.
//
// Metric names follow the dsn_<subsystem>_<name> convention (subsystems:
// sched, journal, spill, remote, settle, chain, repair); counters end in
// _total and duration histograms in _seconds. scripts/metriclint.sh
// enforces the convention in CI.
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

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; all methods are safe on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// value returns the current count (0 on a nil receiver).
func (c *Counter) value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value. The zero value is ready to
// use; all methods are safe on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// value returns the current value (0 on a nil receiver).
func (g *Gauge) value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed cumulative-style buckets
// (Prometheus "le" semantics: an observation lands in the first bucket
// whose upper bound is >= the value; values above the last bound land
// in the implicit +Inf bucket). Observe is lock-free; all methods are
// safe on a nil receiver.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds, +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	n      atomic.Uint64
}

// NewHistogram builds a standalone histogram (not attached to any
// registry) over the given strictly increasing upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = defBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d: %v <= %v", i, b[i], b[i-1]))
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, len(bounds) => +Inf
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(nw)) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// count returns the number of observations (0 on a nil receiver).
func (h *Histogram) count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// total returns the sum of all observed values (0 on a nil receiver).
func (h *Histogram) total() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation within the bucket holding the target rank — the same
// estimator Prometheus' histogram_quantile uses. Observations in the
// +Inf bucket clamp to the last finite bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		in := float64(h.counts[i].Load())
		if cum+in >= rank && in > 0 {
			if i == len(h.bounds) { // +Inf bucket: no upper edge to interpolate to
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			return lo + (hi-lo)*(rank-cum)/in
		}
		cum += in
	}
	return h.bounds[len(h.bounds)-1]
}

// defBuckets is a general-purpose latency scale in seconds.
var defBuckets = ExpBuckets(1e-6, 2, 26) // 1µs .. ~33s

// DurationBuckets is a fine-grained latency scale (factor 1.1 from 1µs
// to ~75s) whose narrow buckets keep Quantile interpolation error
// within ~10% — tight enough for the soak gate's flatness ratios.
var DurationBuckets = ExpBuckets(1e-6, 1.1, 191)

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and growing by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Label is one name=value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family. Exactly one of the
// value fields is set, matching the family kind.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64
	series  map[string]*series // keyed by rendered label set
}

// Registry collects metric families. All registration methods return
// the existing series when called twice with the same name and labels,
// so independent subsystems can share families. A nil *Registry is a
// valid "observability off" registry: registration returns nil metrics
// whose methods are no-ops.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// get returns (creating if needed) the series for name+labels, checking
// that the family kind matches. Mismatched re-registration is a
// programming error and panics.
func (r *Registry) get(name, help string, kind metricKind, buckets []float64, labels []Label) *series {
	labels = sortLabels(labels)
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, series: make(map[string]*series)}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, kind.promType(), f.kind.promType()))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: labels}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = NewHistogram(f.buckets)
		}
		f.series[key] = s
	}
	return s
}

// Counter registers (or fetches) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, help, kindCounter, nil, labels).c
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, help, kindGauge, nil, labels).g
}

// Histogram registers (or fetches) a histogram series. The bucket
// bounds of the first registration win for the whole family; pass nil
// for DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = defBuckets
	}
	return r.get(name, help, kindHistogram, buckets, labels).h
}

// CounterFunc registers a counter series whose value is read from fn at
// snapshot time — for re-exporting counters a subsystem already keeps
// (e.g. the chain's history-read count) without dual-writing.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.get(name, help, kindCounterFunc, nil, labels).fn = fn
}

// GaugeFunc registers a gauge series whose value is read from fn at
// snapshot time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.get(name, help, kindGaugeFunc, nil, labels).fn = fn
}

// Sample is one series' state captured by Snapshot.
type Sample struct {
	Name   string
	Labels []Label
	Kind   string // "counter", "gauge", "histogram"
	Value  float64
	// Histogram-only fields.
	Buckets []float64 // upper bounds, parallel to BucketCounts[:len]
	Counts  []uint64  // per-bucket counts; last entry is the +Inf bucket
	Sum     float64
	Count   uint64
}

// Snapshot returns every series' current value, sorted by family name
// then label set. It is safe to call concurrently with writers.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type flat struct {
		f *family
		s *series
		k string
	}
	var all []flat
	for _, f := range r.fams {
		for k, s := range f.series {
			all = append(all, flat{f, s, k})
		}
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].f.name != all[j].f.name {
			return all[i].f.name < all[j].f.name
		}
		return all[i].k < all[j].k
	})
	out := make([]Sample, 0, len(all))
	for _, fl := range all {
		smp := Sample{Name: fl.f.name, Labels: fl.s.labels, Kind: fl.f.kind.promType()}
		switch fl.f.kind {
		case kindCounter:
			smp.Value = float64(fl.s.c.value())
		case kindGauge:
			smp.Value = float64(fl.s.g.value())
		case kindCounterFunc, kindGaugeFunc:
			if fl.s.fn != nil {
				smp.Value = fl.s.fn()
			}
		case kindHistogram:
			h := fl.s.h
			smp.Buckets = h.bounds
			smp.Counts = make([]uint64, len(h.counts))
			for i := range h.counts {
				smp.Counts[i] = h.counts[i].Load()
			}
			smp.Sum = h.total()
			smp.Count = h.count()
		}
		out = append(out, smp)
	}
	return out
}

// help returns the registered help string for a family (used by the
// Prometheus writer, which holds its own lock ordering).
func (r *Registry) familyMeta() map[string]struct {
	help string
	kind metricKind
} {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]struct {
		help string
		kind metricKind
	}, len(r.fams))
	for n, f := range r.fams {
		out[n] = struct {
			help string
			kind metricKind
		}{f.help, f.kind}
	}
	return out
}
