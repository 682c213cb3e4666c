package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", L("route", "/v1/plan"))
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	// Same name+labels returns the same series.
	if r.Counter("requests_total", L("route", "/v1/plan")) != c {
		t.Fatal("lookup did not return the existing series")
	}
	// Label order must not matter.
	c2 := r.Counter("multi", L("a", "1"), L("b", "2"))
	if r.Counter("multi", L("b", "2"), L("a", "1")) != c2 {
		t.Fatal("label order changed series identity")
	}
	// Counters refuse to go down or absorb non-finite deltas.
	c.Add(-5)
	c.Add(math.NaN())
	c.Add(math.Inf(1))
	if got := c.Value(); got != 3 {
		t.Fatalf("counter after bad deltas = %v, want 3", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
	g.Set(math.NaN())
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge after NaN set = %v, want 3", got)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 8} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	wantCounts := []uint64{1, 2, 1, 1} // (..1], (1..2], (2..4], (4..Inf)
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Sum != 14.5 {
		t.Fatalf("sum = %v, want 14.5", s.Sum)
	}
}

func TestHistogramRejectsNaNClampsInf(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2})
	h.Observe(math.NaN())
	if h.Snapshot().Count != 0 {
		t.Fatal("NaN observation was recorded")
	}
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.Counts[0] != 1 || s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("Inf observations not clamped to edge buckets: %v", s.Counts)
	}
	if math.IsNaN(s.Sum) || math.IsInf(s.Sum, 0) {
		t.Fatalf("sum poisoned: %v", s.Sum)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Help("req_total", "requests served")
	r.Counter("req_total", L("route", "/v1/plan")).Add(3)
	r.Counter("req_total", L("route", "/v1/simulate")).Inc()
	r.Gauge("inflight").Set(2)
	h := r.Histogram("lat_seconds", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(9)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP req_total requests served",
		"# TYPE req_total counter",
		`req_total{route="/v1/plan"} 3`,
		`req_total{route="/v1/simulate"} 1`,
		"# TYPE inflight gauge",
		"inflight 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.5"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 10",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Scrapes must be deterministic.
	var b2 strings.Builder
	r.WritePrometheus(&b2)
	if b2.String() != out {
		t.Fatal("two scrapes of an unchanged registry differ")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c", L("g", string(rune('a'+g%4)))).Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", nil, L("g", string(rune('a'+g%4)))).Observe(float64(i) / 100)
				if i%100 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var total float64
	for _, l := range []string{"a", "b", "c", "d"} {
		total += r.Counter("c", L("g", l)).Value()
	}
	if total != 8*500 {
		t.Fatalf("lost counter increments: %v", total)
	}
	if got := r.Gauge("g").Value(); got != 8*500 {
		t.Fatalf("lost gauge adds: %v", got)
	}
}

// TestLabelOrderAndQuoting pins the exposition of labelled series: labels in
// key order whatever order they were given in, values quoted as %q quotes
// them, and the series of a family ordered by that labelled form.
func TestLabelOrderAndQuoting(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", L("b", "2"), L("a", "1")).Inc()
	r.Counter("m", L("a", "\"q\"\n")).Add(2)
	r.Counter("m", L("a", "1"), L("b", "2")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = "# TYPE m counter\n" +
		`m{a="1",b="2"} 2` + "\n" +
		`m{a="\"q\"\n"} 2` + "\n"
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestWarmLookupAllocatesNothing: once a labelled series exists, finding it
// again — as every request does for its route counters — allocates nothing.
func TestWarmLookupAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	route := "/v1/plan"
	r.Counter("req_total", L("route", route), L("status", "200")).Inc()
	r.Histogram("lat_seconds", nil, L("route", route), L("strategy", "opass")).Observe(1)
	n := testing.AllocsPerRun(100, func() {
		r.Counter("req_total", L("status", "200"), L("route", route)).Inc()
		r.Histogram("lat_seconds", nil, L("route", route), L("strategy", "opass")).Observe(0.5)
	})
	if n != 0 {
		t.Fatalf("a warm two-label lookup allocated %v times, want 0", n)
	}
}
