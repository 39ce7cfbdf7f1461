// Package metrics is a dependency-free telemetry layer for the scan
// stack: a registry of named counters, gauges and log-bucketed
// histograms.
//
// Design goals, in order:
//
//   - Cheap enough for the packet hot path (atomic counters, fixed
//     power-of-two histogram buckets, no allocation on the record path).
//   - Snapshotable: a Snapshot is a plain value that marshals to JSON
//     and renders as Prometheus text exposition.
//   - Mergeable: snapshots from independent -parallel shards sum to the
//     totals of an unsharded run, mirroring how ZMap shards merge their
//     per-instance metadata after a distributed scan.
//
// Metric names are dotted paths ("netsim.packets_sent",
// "core.probe.lifetime_ns"); the Prometheus writer flattens the dots to
// underscores. Time-valued histograms carry a _ns suffix and record
// virtual nanoseconds.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() { atomic.AddInt64(&c.v, 1) }

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) { atomic.AddInt64(&c.v, n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return atomic.LoadInt64(&c.v) }

// Gauge is an instantaneous level (e.g. in-flight probes). It also
// tracks the high-water mark seen since creation.
type Gauge struct {
	v   int64
	max int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	atomic.StoreInt64(&g.v, v)
	g.bumpMax(v)
}

// Add moves the gauge by d (negative to decrease) and returns the new
// value.
func (g *Gauge) Add(d int64) int64 {
	v := atomic.AddInt64(&g.v, d)
	g.bumpMax(v)
	return v
}

func (g *Gauge) bumpMax(v int64) {
	for {
		m := atomic.LoadInt64(&g.max)
		if v <= m || atomic.CompareAndSwapInt64(&g.max, m, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return atomic.LoadInt64(&g.v) }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return atomic.LoadInt64(&g.max) }

// Registry holds named metrics. Lookups lazily create the metric, so
// instrumentation sites never need registration boilerplate; callers on
// hot paths should cache the returned pointer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// GaugeValue is the snapshot of one gauge.
type GaugeValue struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a point-in-time copy of a registry, safe to marshal,
// merge and render after the run that produced it has ended.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]GaugeValue     `json:"gauges"`
	Histograms map[string]HistogramValue `json:"histograms"`
}

// Snapshot copies every metric out of the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]GaugeValue, len(r.gauges)),
		Histograms: make(map[string]HistogramValue, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeValue{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Value()
	}
	return s
}

// Merge folds o into s: counters and histogram contents sum exactly, so
// per-shard snapshots combine to the totals of an unsharded run. Gauge
// values and maxima also sum — for levels like in-flight probes the sum
// over concurrently running shards is the aggregate level.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]GaugeValue)
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistogramValue)
	}
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, g := range o.Gauges {
		prev := s.Gauges[name]
		s.Gauges[name] = GaugeValue{Value: prev.Value + g.Value, Max: prev.Max + g.Max}
	}
	for name, h := range o.Histograms {
		prev := s.Histograms[name]
		prev.Merge(h)
		s.Histograms[name] = prev
	}
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (metric names flattened: dots become underscores).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		g := s.Gauges[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n%s_max %d\n", pn, pn, g.Value, pn, g.Max); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		pn := promName(name)
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b.Bound, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			pn, h.Count, pn, h.Sum, pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary renders a compact human-readable view: one line per
// metric, histograms as count/mean/p50/p99.
func (s Snapshot) WriteSummary(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "%-45s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		g := s.Gauges[name]
		if _, err := fmt.Fprintf(w, "%-45s %d (max %d)\n", name, g.Value, g.Max); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if h.Count == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%-45s n=%d mean=%.0f p50=%d p99=%d max=%d\n",
			name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promName flattens a dotted metric name into the Prometheus charset.
func promName(name string) string {
	var sb strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			sb.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				sb.WriteByte('_')
			}
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}
