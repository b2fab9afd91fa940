package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric label pair; Labels is an ordered label set.
type Label struct {
	K, V string
}

// Labels is a small ordered set of metric labels.
type Labels []Label

func (ls Labels) signature() string {
	if len(ls) == 0 {
		return ""
	}
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.K + "=" + l.V
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// render formats the label set in exposition syntax, e.g. {stage="extract"}.
func (ls Labels) render() string {
	if len(ls) == 0 {
		return ""
	}
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = fmt.Sprintf("%s=%q", l.K, l.V)
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// Counter is a monotonically increasing metric. Nil counters (from a nil
// Registry) absorb all operations.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta to the gauge.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds (ascending); an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, the last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value. A value exactly on a bucket's upper bound
// counts into that bucket (Prometheus "le" semantics).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (clamped to [0,1]) of the observed
// distribution, interpolating linearly within the bucket the quantile
// falls into — the same estimate Prometheus's histogram_quantile makes.
// A quantile landing in the +Inf bucket reports the highest finite bound
// (there is no upper edge to interpolate against); an empty histogram
// reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := q * float64(total)
	var cum float64
	for i, bound := range h.bounds {
		c := float64(h.counts[i].Load())
		if c > 0 && cum+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (bound-lo)*(rank-cum)/c
		}
		cum += c
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}

// BucketCounts returns the per-bucket (non-cumulative) counts; the final
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// DurationBuckets is the standard layout for stage and job durations, in
// seconds: 1ms to 60s, roughly logarithmic.
func DurationBuckets() []float64 {
	return []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// SizeBuckets is the standard layout for record/burst counts: 100 to 10M,
// decade-and-a-half steps.
func SizeBuckets() []float64 {
	return []float64{100, 500, 1e3, 5e3, 1e4, 5e4, 1e5, 5e5, 1e6, 5e6, 1e7}
}

// metricKind discriminates the registry's series types.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

var kindNames = [...]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}

// series is one registered metric instance (a name + one label set).
type series struct {
	name   string
	help   string
	kind   metricKind
	labels Labels
	sig    string // labels.signature(), the snapshot's secondary sort key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds a run's metrics. All methods are safe for concurrent use;
// a nil *Registry is valid and returns nil (inert) instruments, so call
// sites chain Metrics(ctx).Counter(...).Add(...) unconditionally.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return &Registry{series: make(map[string]*series)} }

// lookup returns the series for (name, labels), creating it — instrument
// included — under the registry lock, so a concurrent exporter never
// observes a series whose instrument is still being attached.
func (r *Registry) lookup(name string, kind metricKind, help string, labels Labels, bounds []float64) *series {
	sig := labels.signature()
	key := name + "\x00" + sig
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		if s.kind != kind {
			// A kind collision is a programming error; keep the registry
			// consistent by handing back a detached instrument.
			return newSeries(name, help, kind, labels, sig, bounds)
		}
		return s
	}
	s := newSeries(name, help, kind, labels, sig, bounds)
	r.series[key] = s
	return s
}

func newSeries(name, help string, kind metricKind, labels Labels, sig string, bounds []float64) *series {
	s := &series{name: name, help: help, kind: kind, labels: labels, sig: sig}
	switch kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		sort.Float64s(bs)
		s.h = &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
	}
	return s
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, help, labels, nil).c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, help, labels, nil).g
}

// Histogram returns the named histogram, registering it with the given
// bucket upper bounds on first use (later calls reuse the first layout).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindHistogram, help, labels, bounds).h
}

// snapshot returns the registered series sorted by name then label
// signature, for deterministic export.
func (r *Registry) snapshot() []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].sig < out[j].sig
	})
	return out
}

// SeriesView is one registered series frozen for export: identity, kind,
// and the value fields the kind uses (Value for counters and gauges;
// Count/Sum/Bounds/Buckets for histograms). The slices are copies — safe
// to retain past the next registry mutation.
type SeriesView struct {
	Name   string
	Help   string
	Kind   string // "counter" | "gauge" | "histogram"
	Labels Labels
	// Value is the current counter or gauge value (counters as float).
	Value float64
	// Count, Sum, Bounds, Buckets describe a histogram: Bounds are the
	// finite upper bounds, Buckets the per-bucket (non-cumulative) counts
	// with the +Inf bucket last, so len(Buckets) == len(Bounds)+1.
	Count   int64
	Sum     float64
	Bounds  []float64
	Buckets []int64
}

// Snapshot freezes every registered series for export, sorted by name then
// label signature — the stable order every exporter (Prometheus text,
// JSON, OTLP) shares. A nil registry snapshots to nil.
func (r *Registry) Snapshot() []SeriesView {
	if r == nil {
		return nil
	}
	raw := r.snapshot()
	out := make([]SeriesView, 0, len(raw))
	for _, s := range raw {
		v := SeriesView{Name: s.name, Help: s.help, Kind: kindNames[s.kind], Labels: append(Labels(nil), s.labels...)}
		switch s.kind {
		case kindCounter:
			v.Value = float64(s.c.Value())
		case kindGauge:
			v.Value = s.g.Value()
		case kindHistogram:
			v.Count, v.Sum = s.h.Count(), s.h.Sum()
			v.Bounds = append([]float64(nil), s.h.bounds...)
			v.Buckets = s.h.BucketCounts()
		}
		out = append(out, v)
	}
	return out
}

// formatValue renders a float in exposition syntax (integers stay bare).
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers per metric name, one line per
// series, histograms expanded into cumulative _bucket/_sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	lastName := ""
	for _, s := range r.snapshot() {
		if s.name != lastName {
			if s.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.name, s.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, kindNames[s.kind])
			lastName = s.name
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", s.name, s.labels.render(), s.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", s.name, s.labels.render(), formatValue(s.g.Value()))
		case kindHistogram:
			var cum int64
			for i, bound := range s.h.bounds {
				cum += s.h.counts[i].Load()
				lbs := append(Labels{{K: "le", V: formatValue(bound)}}, s.labels...)
				fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, lbs.render(), cum)
			}
			cum += s.h.counts[len(s.h.bounds)].Load()
			lbs := append(Labels{{K: "le", V: "+Inf"}}, s.labels...)
			fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, lbs.render(), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.name, s.labels.render(), formatValue(s.h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.name, s.labels.render(), s.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// jsonSeries is the JSON shape of one exported series.
type jsonSeries struct {
	Name    string            `json:"name"`
	Kind    string            `json:"kind"`
	Help    string            `json:"help,omitempty"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   *int64            `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Bounds  []float64         `json:"bounds,omitempty"`
	Buckets []int64           `json:"buckets,omitempty"`
}

// MarshalJSON exports every series as a JSON array, deterministically
// ordered.
func (r *Registry) MarshalJSON() ([]byte, error) {
	if r == nil {
		return []byte("null"), nil
	}
	out := make([]jsonSeries, 0)
	for _, s := range r.snapshot() {
		js := jsonSeries{Name: s.name, Kind: kindNames[s.kind], Help: s.help}
		if len(s.labels) > 0 {
			js.Labels = make(map[string]string, len(s.labels))
			for _, l := range s.labels {
				js.Labels[l.K] = l.V
			}
		}
		switch s.kind {
		case kindCounter:
			v := float64(s.c.Value())
			js.Value = &v
		case kindGauge:
			v := s.g.Value()
			js.Value = &v
		case kindHistogram:
			n, sum := s.h.Count(), s.h.Sum()
			js.Count, js.Sum = &n, &sum
			js.Bounds = s.h.bounds
			js.Buckets = s.h.BucketCounts()
		}
		out = append(out, js)
	}
	return json.Marshal(out)
}

// WriteJSON writes the JSON export, indented.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := r.MarshalJSON()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, b, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

// WithMetrics attaches a metrics registry to ctx.
func WithMetrics(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, registryKey, r)
}

// Metrics returns the registry carried by ctx, or nil — whose instruments
// are all inert, so instrumented code never branches.
func Metrics(ctx context.Context) *Registry {
	r, _ := ctx.Value(registryKey).(*Registry)
	return r
}
