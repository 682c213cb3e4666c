package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"opass/internal/httpapi"
	"opass/internal/telemetry"
)

// This file implements the fleet-scale half of the "scale" experiment: the
// full request path — streaming JSON decode, pooled locality index, planner —
// driven end to end over HTTP at bulk sizes (1k→10k processes carrying
// 100k→1M single-input tasks at paper scale). Each row records wall time,
// planner time, request-body bytes, and the sampled peak heap, so the
// committed BENCH_scale.json pins the memory-amplification trajectory: peak
// heap should stay within a small constant of the problem's resident size.

// scaleSizes is the proc-count trajectory at -scale 1; tasks are always
// scaleTasksPerProc per process. -scale divides every entry: -scale 20 walks
// 64→512 procs / 6.4k→51.2k tasks through the same path in a second or two,
// and CI runs the full -scale 1 sweep under a timeout so a planner that falls
// back to ~n² fails the job.
var scaleSizes = []int{1280, 2560, 5120, 10240}

const scaleTasksPerProc = 100

// scaleRow is one serialized trajectory point.
type scaleRow struct {
	Procs            int     `json:"procs"`
	Tasks            int     `json:"tasks"`
	Nodes            int     `json:"nodes"`
	BodyBytes        int64   `json:"body_bytes"`
	WallSeconds      float64 `json:"wall_seconds"`
	PlannerSeconds   float64 `json:"planner_seconds"`
	PeakHeapBytes    uint64  `json:"peak_heap_bytes"`
	HeapPerBodyByte  float64 `json:"heap_per_body_byte"`
	LocalityFraction float64 `json:"locality_fraction"`
}

// scaleReport is one GOMAXPROCS value's entry (see perProcsKey) of the
// BENCH_scale.json document.
type scaleReport struct {
	GeneratedBy string     `json:"generated_by"`
	GoMaxProcs  int        `json:"go_max_procs"`
	Scale       int        `json:"scale"`
	Rows        []scaleRow `json:"rows"`
}

// writeScaleBody streams the plan request for one trajectory point as JSON:
// procs processes pinned one per node, tasks single-input 64 MB tasks with 3
// distinct random replicas each. Streaming generation keeps the bench's own
// footprint out of the heap measurement — the body is never resident. It
// returns the number of body bytes produced.
func writeScaleBody(w io.Writer, procs, tasks int, seed int64) (int64, error) {
	bw := newCountingWriter(w)
	rng := rand.New(rand.NewSource(seed))
	fmt.Fprintf(bw, `{"nodes":%d,"strategy":"opass","seed":%d,"proc_nodes":[`, procs, seed)
	for i := 0; i < procs; i++ {
		if i > 0 {
			io.WriteString(bw, ",")
		}
		fmt.Fprintf(bw, "%d", i)
	}
	io.WriteString(bw, `],"tasks":[`)
	for t := 0; t < tasks; t++ {
		if t > 0 {
			io.WriteString(bw, ",")
		}
		a := rng.Intn(procs)
		b := (a + 1 + rng.Intn(procs-1)) % procs
		c := (a + 1 + rng.Intn(procs-1)) % procs
		if c == b {
			c = (b + 1) % procs
			if c == a {
				c = (c + 1) % procs
			}
		}
		fmt.Fprintf(bw, `{"inputs":[{"size_mb":64,"replicas":[%d,%d,%d]}]}`, a, b, c)
	}
	_, err := io.WriteString(bw, "]}")
	if err == nil {
		err = bw.err
	}
	return bw.n, err
}

// countingWriter tracks bytes written and the first error, so the generator
// reports the body size without buffering it.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func newCountingWriter(w io.Writer) *countingWriter { return &countingWriter{w: w} }

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

// heapSampler polls HeapAlloc until stopped and remembers the maximum.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		var m runtime.MemStats
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&m)
			if m.HeapAlloc > s.peak.Load() {
				s.peak.Store(m.HeapAlloc)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) Peak() uint64 {
	close(s.stop)
	s.done.Wait()
	return s.peak.Load()
}

// scaleStudy runs the streaming-path trajectory and optionally writes
// BENCH_scale.json. The plan cache is disabled so every point pays for a
// real planner run, and the request deadline is lifted so paper-scale rows
// are bounded by the planner, not by the serving default.
func scaleStudy(w io.Writer, cfg int, seed int64, jsonPath string) error {
	srv := httptest.NewServer(httpapi.NewServer(httpapi.ServerOptions{
		Registry:         telemetry.NewRegistry(),
		PlanCacheEntries: -1,
		RequestTimeout:   time.Hour,
	}))
	defer srv.Close()

	rep := &scaleReport{
		GeneratedBy: "opass bench scale",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Scale:       cfg,
	}
	fmt.Fprintln(w, "\nstreaming request path at bulk scale (decode + plan over HTTP):")
	fmt.Fprintf(w, "  %-7s %-9s %12s %10s %10s %12s %9s\n",
		"procs", "tasks", "body", "wall", "planner", "peak heap", "heap/body")
	for _, base := range scaleSizes {
		procs := base / cfg
		if procs < 4 {
			continue
		}
		tasks := procs * scaleTasksPerProc

		runtime.GC()
		sampler := startHeapSampler()
		pr, pw := io.Pipe()
		sized := make(chan int64, 1)
		go func() {
			n, err := writeScaleBody(pw, procs, tasks, seed)
			sized <- n
			pw.CloseWithError(err)
		}()
		start := time.Now()
		resp, err := http.Post(srv.URL+"/v1/plan", "application/json", pr)
		if err != nil {
			return fmt.Errorf("scale %d procs: %w", procs, err)
		}
		// Decode only the scalar fields; the owner/list arrays stream
		// through the decoder without being retained.
		var out struct {
			LocalityFraction float64 `json:"locality_fraction"`
			PlannerMillis    float64 `json:"planner_ms"`
			Error            string  `json:"error"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&out)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		wall := time.Since(start)
		peak := sampler.Peak()
		bodyBytes := <-sized
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("scale %d procs: status %d: %s", procs, resp.StatusCode, out.Error)
		}
		if decErr != nil {
			return fmt.Errorf("scale %d procs: decode response: %w", procs, decErr)
		}

		row := scaleRow{
			Procs:            procs,
			Tasks:            tasks,
			Nodes:            procs,
			BodyBytes:        bodyBytes,
			WallSeconds:      wall.Seconds(),
			PlannerSeconds:   out.PlannerMillis / 1e3,
			PeakHeapBytes:    peak,
			HeapPerBodyByte:  float64(peak) / float64(bodyBytes),
			LocalityFraction: out.LocalityFraction,
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Fprintf(w, "  %-7d %-9d %9.1f MB %8.2fs %9.2fs %9.1f MB %8.2fx\n",
			row.Procs, row.Tasks, float64(row.BodyBytes)/(1<<20),
			row.WallSeconds, row.PlannerSeconds,
			float64(row.PeakHeapBytes)/(1<<20), row.HeapPerBodyByte)
	}
	if jsonPath == "" {
		return nil
	}
	if err := mergeBenchJSON(jsonPath, map[string]any{perProcsKey(rep.GoMaxProcs): rep}); err != nil {
		return err
	}
	fmt.Fprintf(w, "(wrote %s)\n", jsonPath)
	return nil
}
