package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"opass/internal/httpapi"
	"opass/internal/telemetry"
)

// This file implements the fleet-scale half of the "scale" experiment: the
// /v1/plan handler — MaxBytesReader, 64 KiB lexer window, pooled locality
// index, planner, response encode — called in process at bulk sizes (1k→10k
// processes carrying 100k→1M single-input tasks at -scale 1). Each body is
// built in memory before the clock starts, so a row charges the service for
// its own work only. Each row records wall time, planner time, request-body
// bytes and the sampled peak heap beyond the body, so the committed
// BENCH_scale.json pins the memory-amplification trajectory: peak heap should
// stay within a small constant of the body.

// scaleSizes is the proc-count trajectory at -scale 1; tasks are always
// scaleTasksPerProc per process. -scale divides every entry: -scale 20 walks
// 64→512 procs / 6.4k→51.2k tasks through the same path in a second or two,
// and CI runs the full -scale 1 sweep under a timeout so a planner that falls
// back to ~n² fails the job.
var scaleSizes = []int{1280, 2560, 5120, 10240}

const scaleTasksPerProc = 100

// scaleMeasures is every report's statement of what its columns cover.
const scaleMeasures = "wall_seconds: one in-process /v1/plan ServeHTTP call on a prebuilt body " +
	"(decode, index, plan, encode; no network, no body generation); peak_heap_bytes: the largest " +
	"/memory/classes/heap/objects:bytes read every 5 ms during that call, less the body the harness holds"

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
	Measures    string     `json:"measures"`
	GoMaxProcs  int        `json:"go_max_procs"`
	Scale       int        `json:"scale"`
	Rows        []scaleRow `json:"rows"`
}

// scaleBody builds the plan request for one trajectory point: procs
// processes pinned one per node, tasks single-input 64 MB tasks with 3
// distinct random replicas each. The buffer is sized for the longest
// possible body up front, so building it never reallocates.
func scaleBody(procs, tasks int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	digits := len(strconv.Itoa(procs))
	const task = `{"inputs":[{"size_mb":64,"replicas":[`
	b := make([]byte, 0, 96+procs*(digits+1)+tasks*(len(task)+3*digits+7))
	b = append(b, `{"nodes":`...)
	b = strconv.AppendInt(b, int64(procs), 10)
	b = append(b, `,"strategy":"opass","seed":`...)
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, `,"proc_nodes":[`...)
	for i := 0; i < procs; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(i), 10)
	}
	b = append(b, `],"tasks":[`...)
	for t := 0; t < tasks; t++ {
		if t > 0 {
			b = append(b, ',')
		}
		a := rng.Intn(procs)
		r1 := (a + 1 + rng.Intn(procs-1)) % procs
		r2 := (a + 1 + rng.Intn(procs-1)) % procs
		if r2 == r1 {
			r2 = (r1 + 1) % procs
			if r2 == a {
				r2 = (r2 + 1) % procs
			}
		}
		b = append(b, task...)
		b = strconv.AppendInt(b, int64(a), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(r1), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(r2), 10)
		b = append(b, "]}]}"...)
	}
	return append(b, "]}"...)
}

// heapPeakDuring runs fn while a goroutine reads the heap's object bytes
// every 5 ms, and returns the largest reading. A runtime/metrics read does
// not stop the world, so the probe adds no pause to what it measures.
func heapPeakDuring(fn func()) uint64 {
	stop, peak := make(chan struct{}), make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var top uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			top = max(top, s[0].Value.Uint64())
			select {
			case <-stop:
				peak <- top
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	return <-peak
}

// scaleStudy runs the trajectory and optionally merges it into
// BENCH_scale.json. The plan cache is disabled so every point pays for a
// real planner run and the service never holds the body, and the request
// deadline is lifted so the largest rows are bounded by the planner, not by
// the serving default.
func scaleStudy(w io.Writer, cfg int, seed int64, jsonPath string) error {
	api := httpapi.NewServer(httpapi.ServerOptions{
		Registry:         telemetry.NewRegistry(),
		PlanCacheEntries: -1,
		RequestTimeout:   time.Hour,
	})
	rep := &scaleReport{
		GeneratedBy: "opass bench scale",
		Measures:    scaleMeasures,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Scale:       cfg,
	}
	fmt.Fprintln(w, "\n/v1/plan handler at bulk scale (decode + plan + encode, in process):")
	fmt.Fprintf(w, "  %-7s %-9s %12s %10s %10s %12s %9s\n",
		"procs", "tasks", "body", "wall", "planner", "peak heap", "heap/body")
	for _, base := range scaleSizes {
		procs := base / cfg
		if procs < 4 {
			continue
		}
		tasks := procs * scaleTasksPerProc
		body := scaleBody(procs, tasks, seed)
		rec := httptest.NewRecorder()
		runtime.GC()

		var wall time.Duration
		peak := heapPeakDuring(func() {
			start := time.Now()
			api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
			wall = time.Since(start)
		})
		peak -= min(peak, uint64(cap(body)))

		var out struct {
			LocalityFraction float64 `json:"locality_fraction"`
			PlannerMillis    float64 `json:"planner_ms"`
			Error            string  `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			return fmt.Errorf("scale %d procs: status %d, decode response: %w", procs, rec.Code, err)
		}
		if rec.Code != http.StatusOK {
			return fmt.Errorf("scale %d procs: status %d: %s", procs, rec.Code, out.Error)
		}

		row := scaleRow{
			Procs:            procs,
			Tasks:            tasks,
			Nodes:            procs,
			BodyBytes:        int64(len(body)),
			WallSeconds:      wall.Seconds(),
			PlannerSeconds:   out.PlannerMillis / 1e3,
			PeakHeapBytes:    peak,
			HeapPerBodyByte:  float64(peak) / float64(len(body)),
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
