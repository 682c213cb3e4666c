package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"opass/internal/httpapi"
	"opass/internal/telemetry"
)

// runConfig is what one measured run of one workload needs to know.
type runConfig struct {
	seed int64
	// seconds > 0 bounds the timed loop by time; 0 bounds it by the
	// workload's request count divided by scale.
	seconds float64
	scale   int
	// trace also runs the traced pass over traceProblems problems.
	trace         bool
	traceProblems int
	// setupReps is how many times set-up is repeated; setup_s is the median.
	setupReps int
	// traceDir, when set, receives trace-<workload>.json.
	traceDir string
}

// runResult is one run of one workload.
type runResult struct {
	Seed      int64 `json:"seed"`
	Noisy     bool  `json:"noisy"`
	Attempted int   `json:"attempted"`
	Failed    int   `json:"failed"`
	// P99 is printed for information: on a shared 2-core box it is
	// scheduler noise, so it is not a gated metric.
	P99      float64            `json:"req_p99_ms_info"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Errors holds the first few validation failures.
	Errors []string `json:"errors,omitempty"`
}

// serverOptions are the options every workload's server runs with.
func serverOptions(w *workload) httpapi.ServerOptions {
	opts := httpapi.ServerOptions{
		Registry:       telemetry.NewRegistry(),
		RequestTimeout: time.Hour,
	}
	if !w.CacheOn {
		opts.PlanCacheEntries = -1
	}
	return opts
}

// bench is one set-up: generated traffic, a running server, one client.
type bench struct {
	w      *workload
	tr     *traffic
	srv    *httptest.Server
	client *http.Client
	buf    bytes.Buffer // response body, reused across requests
}

// orderLen is the length of the seeded request sequence a HotP workload
// generates: its request count, or in time-bounded mode enough for 1.4 times
// the rate the service reaches today (54 requests/s), after which the loop
// stops early. Every never-repeated body is resident for the whole run, so
// a longer sequence would only bury the service's share of heap_live_mb.
func orderLen(w *workload, cfg runConfig) int {
	if cfg.seconds > 0 {
		return int(cfg.seconds * 75)
	}
	return max(w.Requests/cfg.scale, 1)
}

// setUp generates the bodies, starts the server, sends the warm-up requests
// and collects garbage, so the timed loop starts from a settled process.
func setUp(w *workload, cfg runConfig) (*bench, error) {
	b := &bench{w: w, tr: generate(w, cfg.seed, orderLen(w, cfg))}
	b.srv = httptest.NewServer(httpapi.NewServer(serverOptions(w)))
	// One closed-loop client on one kept-alive connection.
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	for _, p := range b.tr.warm {
		status, err := b.post(p)
		if err == nil {
			_, err = checkResponse(p, status, b.buf.Bytes())
		}
		if err != nil {
			b.close()
			return nil, fmt.Errorf("%s: warm-up request: %w", w.Name, err)
		}
	}
	runtime.GC()
	return b, nil
}

func (b *bench) close() {
	b.client.CloseIdleConnections()
	b.srv.Close()
}

// post sends one body and reads the whole response into b.buf.
func (b *bench) post(p *problem) (status int, err error) {
	resp, err := b.client.Post(b.srv.URL+p.w.Route, "application/json", bytes.NewReader(p.body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b.buf.Reset()
	if _, err := b.buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// scrape reads the named unlabelled series from GET /metrics; absent ones
// read 0.
func (b *bench) scrape(names ...string) (map[string]float64, error) {
	resp, err := b.client.Get(b.srv.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		for _, want := range names {
			if name == want {
				if out[name], err = strconv.ParseFloat(value, 64); err != nil {
					return nil, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
				}
			}
		}
	}
	return out, sc.Err()
}

// heapSampler polls the live-heap size (bytes marked by the last GC cycle)
// every 5 ms and keeps the maximum. Sampled HeapAlloc peaks varied 25% run to
// run in a prototype; the live heap varies under 3%.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64 // owned by the goroutine until done
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			s.peak = max(s.peak, sample[0].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) peakBytes() uint64 {
	close(s.stop)
	s.done.Wait()
	return s.peak
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// spinMillis times a fixed pure-CPU loop: the fastest of seven short spins,
// which is the host's speed with interruptions left out. Its drift across a
// workload tells a host that changed speed from a program that did.
func spinMillis() float64 {
	var times []float64
	for range 7 {
		start := time.Now()
		x := uint64(88172645463325252)
		for range 4_000_000 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
		times = append(times, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return slices.Min(times)
}

// spinSink keeps the compiler from removing the spin loop.
var spinSink uint64

// spinDriftLimit is the spin-time change across a workload above which the
// run is marked noisy (quiet runs drift under 2%, noise episodes 10-25%).
const spinDriftLimit = 0.10

// timed is what the timed loop measured.
type timed struct {
	latencies []float64 // ms, +Inf for a failed request
	failed    int       // non-200 or rejected by the validator
	non200    int
	errors    []string
	tasks     int
	locality  float64 // sum over valid responses
	wall, cpu float64 // seconds
	allocMB   float64
	heapMB    float64
	gcCycles  uint32
	gcPauseMS float64
}

// timedLoop is the closed loop: one request at a time, latency from POST to
// the last body byte, validation after the latency stamp.
func (b *bench) timedLoop(cfg runConfig) *timed {
	limit := max(b.w.Requests/cfg.scale, 1)
	if cfg.seconds > 0 {
		limit = math.MaxInt
	}
	if b.w.HotP > 0 {
		limit = min(limit, len(b.tr.order)) // never repeat a "never-seen" body
	}
	t := &timed{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sampler := startHeapSampler()
	cpu0 := cpuSeconds()
	start := time.Now()
	for i := 0; i < limit; i++ {
		if cfg.seconds > 0 && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		p := b.tr.problems[b.tr.order[i%len(b.tr.order)]]
		sent := time.Now()
		status, err := b.post(p)
		lat := float64(time.Since(sent).Nanoseconds()) / 1e6
		if err == nil && status != http.StatusOK {
			t.non200++
		}
		var ans answer
		if err == nil {
			ans, err = checkResponse(p, status, b.buf.Bytes())
		}
		if err != nil {
			t.failed++
			if len(t.errors) < 5 {
				t.errors = append(t.errors, fmt.Sprintf("request %d: %v", i, err))
			}
			lat = math.Inf(1)
		} else {
			t.tasks += b.w.Tasks
			t.locality += ans.locality
		}
		t.latencies = append(t.latencies, lat)
	}
	t.wall = time.Since(start).Seconds()
	t.cpu = cpuSeconds() - cpu0
	t.heapMB = float64(sampler.peakBytes()) / 1e6
	runtime.ReadMemStats(&after)
	t.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.gcCycles = after.NumGC - before.NumGC
	t.gcPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return t
}

// runWorkload performs one full run: spin, set-up (repeated, median timed),
// the timed loop with tracing off, the cache scrape, spin again, and — when
// asked — the traced pass.
func runWorkload(w *workload, cfg runConfig) (*runResult, error) {
	spin0 := spinMillis()
	var (
		b      *bench
		setups []float64
	)
	for range cfg.setupReps {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		if b, err = setUp(w, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()

	t := b.timedLoop(cfg)
	cache, err := b.scrape(httpapi.MetricPlanCacheHits, httpapi.MetricPlanCacheMisses,
		httpapi.MetricPlanCacheEntries, httpapi.MetricPlanCacheEvictions)
	if err != nil {
		return nil, fmt.Errorf("%s: scrape /metrics: %w", w.Name, err)
	}
	spin1 := spinMillis()
	drift := math.Abs(spin1-spin0) / spin0

	n := len(t.latencies)
	ok := float64(max(n-t.failed, 1))
	res := &runResult{
		Seed: cfg.seed, Noisy: drift > spinDriftLimit,
		Attempted: n, Failed: t.failed, Errors: t.errors,
		P99: finite(percentile(t.latencies, 0.99)),
		EndToEnd: map[string]float64{
			"req_p50_ms":       finite(median(t.latencies)),
			"req_p90_ms":       finite(percentile(t.latencies, 0.90)),
			"tasks_per_s":      float64(t.tasks) / t.wall,
			"cpu_ms_per_req":   t.cpu * 1e3 / float64(n),
			"alloc_mb_per_req": t.allocMB / float64(n),
			"heap_live_mb":     t.heapMB,
			"locality_frac":    t.locality / ok,
			"failed_frac":      float64(t.failed) / float64(n),
			"setup_s":          median(setups),
		},
	}
	if !cfg.trace {
		return res, nil
	}
	res.PerLayer, err = tracedPass(b.tr, cfg)
	if err != nil {
		return nil, err
	}
	res.PerLayer["httpapi.non200"] += float64(t.non200)
	if lookups := cache[httpapi.MetricPlanCacheHits] + cache[httpapi.MetricPlanCacheMisses]; lookups > 0 {
		res.PerLayer["plancache.hit_frac"] = cache[httpapi.MetricPlanCacheHits] / lookups
	}
	res.PerLayer["plancache.entries"] = cache[httpapi.MetricPlanCacheEntries]
	res.PerLayer["plancache.evictions"] = cache[httpapi.MetricPlanCacheEvictions]
	res.PerLayer["process.gc_cycles"] = float64(t.gcCycles)
	res.PerLayer["process.gc_pause_ms"] = t.gcPauseMS
	res.PerLayer["process.go_max_procs"] = float64(runtime.GOMAXPROCS(0))
	res.PerLayer["host.spin_ms"] = spin0
	res.PerLayer["host.spin_drift_frac"] = drift
	return res, nil
}
