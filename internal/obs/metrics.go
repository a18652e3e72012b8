// Package obs is the observability core shared by every layer of the
// repository: allocation-light metrics (atomic counters, gauges, bounded
// histograms) collected in named registries and exposed in the Prometheus
// text format, plus a structured proof-trace event stream (trace.go).
//
// The package depends only on the standard library. Metric updates are a
// single atomic op on the hot path; nil receivers are valid no-op sinks
// everywhere, so instrumented layers cost nothing until a registry is
// attached.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is usable;
// a nil *Counter is a valid no-op sink.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics). Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count. Nil-safe.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge is a valid
// no-op sink.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments the gauge by d (CAS loop). Nil-safe.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value. Nil-safe.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Buckets are cumulative
// in the exposition (Prometheus `le` semantics); observation is two atomic
// ops. A nil *Histogram is a valid no-op sink.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations. Nil-safe.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values. Nil-safe.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// CounterVec is a family of counters split by one label. Get-or-create per
// label value; a nil *CounterVec hands out nil counters (no-op sinks).
type CounterVec struct {
	mu    sync.Mutex
	label string
	m     map[string]*Counter
}

// With returns the counter for the given label value, creating it on first
// use. Nil-safe.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.m[value]
	if !ok {
		c = &Counter{}
		v.m[value] = c
	}
	return c
}

// metricKind classifies a family for # TYPE lines.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with its help text and samples.
type family struct {
	name, help string
	kind       metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	vec     *CounterVec
	fn      func() float64 // CounterFunc / GaugeFunc collector
}

// Registry holds named metric families. Register methods are get-or-create:
// asking for an existing name with the same shape returns the same metric,
// so independent layers can share one registry without coordination.
// A nil *Registry hands out nil metrics, which are valid no-op sinks.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register installs (or retrieves) a family by name; a re-registration
// with a different kind is a programming error.
func (r *Registry) register(name, help string, kind metricKind, build func() *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := build()
	f.name, f.help, f.kind = name, help, kind
	r.families[name] = f
	return f
}

// Counter registers (or retrieves) a plain counter. Nil-safe: a nil
// registry returns a nil no-op counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, func() *family {
		return &family{counter: &Counter{}}
	}).counter
}

// CounterVec registers (or retrieves) a counter family split by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, func() *family {
		return &family{vec: &CounterVec{label: label, m: map[string]*Counter{}}}
	}).vec
}

// Gauge registers (or retrieves) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, func() *family {
		return &family{gauge: &Gauge{}}
	}).gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time; used
// to expose state that already has an owner (watermarks, lag, cache sizes)
// without double bookkeeping.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, func() *family {
		return &family{fn: fn}
	})
}

// CounterFunc registers a counter whose value is read at scrape time from
// an existing monotonic source (e.g. verify.Stats, the verdict cache).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounter, func() *family {
		return &family{fn: fn}
	})
}

// Histogram registers (or retrieves) a histogram with the given ascending
// upper bucket bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHistogram, func() *family {
		return &family{hist: newHistogram(bounds)}
	}).hist
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), sorted by family name and label value so output
// is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		if err := writeFamily(w, f); err != nil {
			return err
		}
	}
	return nil
}

func writeFamily(w io.Writer, f *family) error {
	switch {
	case f.fn != nil:
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.fn()))
		return err
	case f.counter != nil:
		_, err := fmt.Fprintf(w, "%s %d\n", f.name, f.counter.Value())
		return err
	case f.gauge != nil:
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.gauge.Value()))
		return err
	case f.vec != nil:
		f.vec.mu.Lock()
		values := make([]string, 0, len(f.vec.m))
		for v := range f.vec.m {
			values = append(values, v)
		}
		sort.Strings(values)
		counters := make([]*Counter, len(values))
		for i, v := range values {
			counters[i] = f.vec.m[v]
		}
		label := f.vec.label
		f.vec.mu.Unlock()
		for i, v := range values {
			if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", f.name, label, v, counters[i].Value()); err != nil {
				return err
			}
		}
		return nil
	case f.hist != nil:
		h := f.hist
		var cum int64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", f.name, formatFloat(bound), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", f.name, formatFloat(h.Sum()), f.name, cum); err != nil {
			return err
		}
		return nil
	}
	return nil
}

// Handler returns an http.Handler serving the registry in the Prometheus
// text format — mount it at /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
