// Package telemetry is the service-side measurement layer: a
// concurrency-safe metrics registry (counters, gauges, and bucketed latency
// histograms) plus HTTP middleware that stamps a request ID, writes one
// structured log line per request, and records status/latency per route.
//
// The simulation statistics the paper reports (I/O time summaries, Jain
// fairness, figure histograms) live in internal/report; this package
// measures the *service* serving those planners — the per-operation
// visibility the paper's §V-A1 per-node monitor provides at the storage
// layer, lifted to the request layer. The registry's text exposition follows
// the Prometheus format so any standard scraper can consume GET /metrics.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name/value dimension of a metric.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// DefBuckets are the default latency buckets in seconds, spanning fast
// in-memory planning (tens of microseconds) through slow simulated runs.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// FractionBuckets are equal-width buckets over [0,1] for ratio-valued
// observations such as locality fractions.
var FractionBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999, 1}

// metricKind discriminates exposition types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// Counter is a monotonically increasing value.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by d; negative or non-finite deltas are ignored
// (counters only go up).
func (c *Counter) Add(d float64) {
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Value reads the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a value that can go up and down.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the value; NaN is ignored so a gauge never poisons a scrape.
func (g *Gauge) Set(v float64) {
	if math.IsNaN(v) {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add shifts the value by d.
func (g *Gauge) Add(d float64) {
	if math.IsNaN(d) {
		return
	}
	g.mu.Lock()
	g.v += d
	g.mu.Unlock()
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram buckets observations by upper bound (cumulative, Prometheus
// style) and tracks count and sum, which is all the exposition needs;
// quantiles are the scraper's histogram_quantile.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds; +Inf implicit
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	count  uint64
	sum    float64
}

func newHistogram(bounds []float64) *Histogram {
	cp := append([]float64(nil), bounds...)
	sort.Float64s(cp)
	return &Histogram{bounds: cp, counts: make([]uint64, len(cp)+1)}
}

// Observe records one observation. NaN observations are dropped; ±Inf
// clamps into the outermost bucket.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.count++
	if !math.IsInf(v, 0) {
		h.sum += v
	} else if v > 0 {
		h.sum += h.bounds[len(h.bounds)-1]
	}
}

// HistogramSnapshot is a consistent copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // per-bucket (non-cumulative); last is +Inf
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram under its lock.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
}

type series struct {
	name    string
	labels  []Label // sorted by key
	key     string  // name, a NUL byte and the labels' canonical form
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metric families. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series // by series.key
	help   map[string]string
	kinds  map[string]metricKind
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[string]*series),
		help:   make(map[string]string),
		kinds:  make(map[string]metricKind),
	}
}

// Help attaches a HELP string to a metric family name, shown in the text
// exposition.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// appendSeriesKey appends a series' map key to b: the name, a NUL byte, then
// the labels sorted by key (stably), each as key="value" with the value quoted
// as %q quotes it, comma-separated. It allocates only past eight labels.
func appendSeriesKey(b []byte, name string, labels []Label) []byte {
	var small [8]int
	order := small[:0]
	for i := range labels {
		order = append(order, i)
		for j := len(order) - 1; j > 0 && labels[order[j]].Key < labels[order[j-1]].Key; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	b = append(append(b, name...), 0)
	for n, i := range order {
		if n > 0 {
			b = append(b, ',')
		}
		b = append(append(b, labels[i].Key...), '=')
		b = strconv.AppendQuote(b, labels[i].Value)
	}
	return b
}

// lookup returns the series for name+labels, creating it — metric included —
// on first use. Everything happens under the one lock, so a series is
// complete and immutable from the moment a scrape can see it. buckets is
// consulted only when a histogram is created; nil means DefBuckets. Finding a
// series that exists allocates nothing: its key is built on the stack.
func (r *Registry) lookup(name string, kind metricKind, buckets []float64, labels []Label) *series {
	var buf [256]byte
	key := appendSeriesKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[string(key)]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different type", name))
		}
		return s
	}
	if k, ok := r.kinds[name]; ok && k != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with a different type", name))
	}
	cp := append([]Label(nil), labels...)
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].Key < cp[j].Key })
	s := &series{name: name, labels: cp, key: string(key), kind: kind}
	switch kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		if buckets == nil {
			buckets = DefBuckets
		}
		s.hist = newHistogram(buckets)
	}
	r.series[s.key] = s
	r.kinds[name] = kind
	return s
}

// Counter returns (creating on first use) the counter series for
// name+labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, kindCounter, nil, labels).counter
}

// Gauge returns (creating on first use) the gauge series for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, kindGauge, nil, labels).gauge
}

// Histogram returns (creating on first use) the histogram series for
// name+labels. buckets is consulted only on first creation; nil means
// DefBuckets.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	return r.lookup(name, kindHistogram, buckets, labels).hist
}

// promLabels renders {k="v",...} or "" for an unlabeled series, with extra
// appended after the series' own labels.
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return formatFloat(v)
	}
}

// formatFloat formats a float compactly without scientific surprise for
// integers.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every series in Prometheus text exposition
// format (v0.0.4), grouped by family with TYPE/HELP headers, in stable
// sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return all[i].key < all[j].key
	})

	var b strings.Builder
	lastFamily := ""
	for _, s := range all {
		if s.name != lastFamily {
			lastFamily = s.name
			if h, ok := help[s.name]; ok {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.name, h)
			}
			typ := "counter"
			switch s.kind {
			case kindGauge:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, typ)
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %s\n", s.name, promLabels(s.labels), promFloat(s.counter.Value()))
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", s.name, promLabels(s.labels), promFloat(s.gauge.Value()))
		case kindHistogram:
			snap := s.hist.Snapshot()
			var run uint64
			for i, c := range snap.Counts {
				run += c
				bound := math.Inf(1)
				if i < len(snap.Bounds) {
					bound = snap.Bounds[i]
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, promLabels(s.labels, L("le", promFloat(bound))), run)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.name, promLabels(s.labels), promFloat(snap.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.name, promLabels(s.labels), snap.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
