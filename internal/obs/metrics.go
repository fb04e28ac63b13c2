package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (negative deltas move it down); the update
// is atomic, so concurrent Inc/Dec pairs never lose counts.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one — with Dec, the in-flight-style usage pattern.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// defBuckets are the default histogram upper bounds, tuned for seconds:
// 1µs … 10s in decades, with a sub-decade point each.
var defBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3,
	1e-2, 5e-2, 0.1, 0.5, 1, 5, 10,
}

// Histogram is a fixed-bucket timing/size histogram with atomic cells. The
// +Inf bucket is implicit (Count minus the last cumulative bucket).
type Histogram struct {
	bounds []float64      // upper bounds, ascending
	cells  []atomic.Int64 // observation count per bucket (non-cumulative)
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = defBuckets
	}
	return &Histogram{bounds: bounds, cells: make([]atomic.Int64, len(bounds))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary-search the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.cells) {
		h.cells[lo].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed wall time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns Sum/Count (zero for an empty histogram).
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// metricKey identifies one metric series: a name plus rendered labels.
type metricKey struct {
	name   string
	labels string // rendered {k="v",...} suffix, "" when unlabelled
}

// Registry holds named metrics and renders them in Prometheus text or JSON
// form. Metric accessors are get-or-create and safe for concurrent use; the
// returned values are shared, so callers typically cache them in package
// variables.
type Registry struct {
	mu       sync.Mutex
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*Histogram
	buckets  map[string][]float64  // per-name bounds for histogram creation
	solves   map[string]*Histogram // solve timing series by algorithm (solve.go)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[metricKey]*Counter{},
		gauges:   map[metricKey]*Gauge{},
		hists:    map[metricKey]*Histogram{},
		buckets:  map[string][]float64{},
		solves:   map[string]*Histogram{},
	}
}

// defaultRegistry is the process-wide registry the library records into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// key renders the series key for name and k1,v1,k2,v2,... label pairs.
func key(name string, labels []string) metricKey {
	if len(labels) == 0 {
		return metricKey{name: name}
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list for %s: %v", name, labels))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return metricKey{name: name, labels: b.String()}
}

// Counter returns the counter for name and optional k,v label pairs,
// creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for name and optional k,v label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for name and optional k,v label pairs.
// All series of one name share bucket bounds: those set with SetBuckets,
// or the default decade buckets.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = newHistogram(r.buckets[name])
		r.hists[k] = h
	}
	return h
}

// SetBuckets registers the upper bounds every future series of the named
// histogram is created with. Bounds must be strictly ascending. Series
// created before the call keep their bounds, so the owning package should
// set buckets before the first observation; name belongs to the same
// owner as the metric itself (the metricname analyzer enforces both).
func (r *Registry) SetBuckets(name string, bounds []float64) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: SetBuckets(%s): bounds not strictly ascending at index %d", name, i))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buckets[name] = append([]float64(nil), bounds...)
}

// ExpBuckets returns log-spaced histogram bounds from min to max with
// perDecade points per decade of magnitude — the bucket shape latency
// histograms want, where relative (not absolute) resolution is constant.
// The first bound is exactly min and the last exactly max.
func ExpBuckets(min, max float64, perDecade int) []float64 {
	if min <= 0 || max <= min || perDecade <= 0 {
		panic(fmt.Sprintf("obs: ExpBuckets(%g, %g, %d): need 0 < min < max and perDecade > 0", min, max, perDecade))
	}
	n := int(math.Round(math.Log10(max/min) * float64(perDecade)))
	if n < 1 {
		n = 1
	}
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		out[i] = min * math.Pow(10, float64(i)/float64(perDecade))
	}
	out[0] = min
	out[n] = max
	return out
}

// Reset drops every registered metric, bucket override, and cached solve
// series (tests and fresh CLI runs).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = map[metricKey]*Counter{}
	r.gauges = map[metricKey]*Gauge{}
	r.hists = map[metricKey]*Histogram{}
	r.buckets = map[string][]float64{}
	r.solves = map[string]*Histogram{}
}

// sortedKeys returns map keys ordered by name then label string, so
// exposition is deterministic.
func sortedKeys[V any](m map[metricKey]V) []metricKey {
	ks := make([]metricKey, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].name != ks[j].name {
			return ks[i].name < ks[j].name
		}
		return ks[i].labels < ks[j].labels
	})
	return ks
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (histograms as cumulative _bucket/_sum/_count series). The
// exposition is rendered into memory under the lock and written out after
// releasing it, so a slow scraper never stalls metric updates.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var buf bytes.Buffer
	r.mu.Lock()
	for _, k := range sortedKeys(r.counters) {
		fmt.Fprintf(&buf, "%s%s %d\n", k.name, k.labels, r.counters[k].Value())
	}
	for _, k := range sortedKeys(r.gauges) {
		fmt.Fprintf(&buf, "%s%s %g\n", k.name, k.labels, r.gauges[k].Value())
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		cum := int64(0)
		for i, ub := range h.bounds {
			cum += h.cells[i].Load()
			fmt.Fprintf(&buf, "%s_bucket%s %d\n", k.name, mergeLabels(k.labels, fmt.Sprintf("le=%q", fmtBound(ub))), cum)
		}
		fmt.Fprintf(&buf, "%s_bucket%s %d\n", k.name, mergeLabels(k.labels, `le="+Inf"`), h.Count())
		fmt.Fprintf(&buf, "%s_sum%s %g\n", k.name, k.labels, h.Sum())
		fmt.Fprintf(&buf, "%s_count%s %d\n", k.name, k.labels, h.Count())
	}
	r.mu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

// fmtBound renders a bucket bound the way Prometheus clients do.
func fmtBound(v float64) string { return fmt.Sprintf("%g", v) }

// mergeLabels splices extra into a rendered {..} label suffix.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// jsonMetric is the JSON exposition of one series.
type jsonMetric struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value,omitempty"`
	Count  int64   `json:"count,omitempty"`
	Sum    float64 `json:"sum,omitempty"`
	Mean   float64 `json:"mean,omitempty"`
}

// WriteJSON renders every metric as one JSON array (counters and gauges
// with value; histograms with count, sum, and mean). The snapshot is taken
// under the lock and encoded after releasing it.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	var out []jsonMetric
	for _, k := range sortedKeys(r.counters) {
		out = append(out, jsonMetric{Name: k.name, Labels: k.labels, Kind: "counter", Value: float64(r.counters[k].Value())})
	}
	for _, k := range sortedKeys(r.gauges) {
		out = append(out, jsonMetric{Name: k.name, Labels: k.labels, Kind: "gauge", Value: r.gauges[k].Value()})
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		out = append(out, jsonMetric{Name: k.name, Labels: k.labels, Kind: "histogram", Count: h.Count(), Sum: h.Sum(), Mean: h.Mean()})
	}
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
