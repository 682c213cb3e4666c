package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	"opass/internal/bipartite"
	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
	"opass/internal/httpapi"
	"opass/internal/plancache"
)

// span is one timed call into a layer. Spans of one replayed problem share
// Req; Parent is the ID of the span that caused it, -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// SelfNS is filled in when the trace is written: see selfNS.
	SelfNS int64 `json:"self_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) begin(name string, req, parent int) int {
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Name: name, Req: req, Parent: parent,
		StartNS: time.Since(tr.t0).Nanoseconds()})
	return id
}

func (tr *tracer) end(id int) { tr.spans[id].EndNS = time.Since(tr.t0).Nanoseconds() }

// in times fn as a child span of parent and returns its milliseconds.
func (tr *tracer) in(name string, req, parent int, fn func()) float64 {
	id := tr.begin(name, req, parent)
	fn()
	tr.end(id)
	return float64(tr.spans[id].EndNS-tr.spans[id].StartNS) / 1e6
}

// millis lists the durations of every span with the given name.
func (tr *tracer) millis(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// selfNS is each span's duration minus the part of it its children cover.
// Children of one span run one after another, so their durations add.
func selfNS(spans []span) []int64 {
	self := make([]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			p := spans[s.Parent]
			self[s.Parent] -= min(s.EndNS, p.EndNS) - max(s.StartNS, p.StartNS)
		}
	}
	return self
}

// layoutView is the cluster view the service gives its mirror file system.
type layoutView int

func (v layoutView) NumNodes() int { return int(v) }
func (layoutView) RackOf(int) int  { return 0 }

// tracedPass replays the first cfg.traceProblems problems of the workload and
// times calls into each layer's public functions from here, outside the
// program. Per problem, under one root span:
//
//	request        loopback POST to a running server
//	httpapi.serve  Server.ServeHTTP on a ResponseRecorder: no socket
//	pipeline       the same work as direct calls on a core.Problem built the
//	               way the service's decoder builds it
//
// The streaming decoder, admission and telemetry are unexported, so they are
// visible only as httpapi.nonplanner_ms minus the pipeline stages that
// account for it. It returns the per-layer metrics: medians over the problems.
func tracedPass(tf *traffic, cfg runConfig) (map[string]float64, error) {
	w := tf.problems[0].w
	srv := httptest.NewServer(httpapi.NewServer(serverOptions(w)))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	// A second instance behind the recorder, so that with the cache on both
	// see each problem for the first time.
	direct := httpapi.NewServer(serverOptions(w))

	tr := &tracer{t0: time.Now()}
	vals := map[string][]float64{}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	non200 := 0

	for req := 0; req < cfg.traceProblems; req++ {
		p := tf.problems[req%min(w.Distinct, len(tf.problems))]
		root := tr.begin("replay", req, -1)

		var status int
		var body bytes.Buffer
		var err error
		tr.in("request", req, root, func() {
			var resp *http.Response
			if resp, err = client.Post(srv.URL+w.Route, "application/json", bytes.NewReader(p.body)); err != nil {
				return
			}
			defer resp.Body.Close()
			status = resp.StatusCode
			_, err = body.ReadFrom(resp.Body)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: traced request %d: %w", w.Name, req, err)
		}
		if status != http.StatusOK {
			non200++
		}
		if _, err := checkResponse(p, status, body.Bytes()); err != nil {
			return nil, fmt.Errorf("%s: traced request %d: %w", w.Name, req, err)
		}

		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, w.Route, bytes.NewReader(p.body))
		serveMS := tr.in("httpapi.serve", req, root, func() { direct.ServeHTTP(rec, hreq) })
		if rec.Code != http.StatusOK {
			non200++
		}
		ans, err := checkResponse(p, rec.Code, rec.Body.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s: traced serve %d: %w", w.Name, req, err)
		}
		add("core.planner_ms", ans.plannerMS)
		add("httpapi.nonplanner_ms", serveMS-ans.plannerMS)
		add("httpapi.body_kb", float64(len(p.body))/1e3)
		add("httpapi.resp_kb", float64(rec.Body.Len())/1e3)

		if err := tracePipeline(tr, req, root, p, ans, add); err != nil {
			return nil, fmt.Errorf("%s: traced pipeline %d: %w", w.Name, req, err)
		}
		tr.end(root)
	}

	if cfg.traceDir != "" {
		for id, ns := range selfNS(tr.spans) {
			tr.spans[id].SelfNS = ns
		}
		if err := writeJSON(filepath.Join(cfg.traceDir, "trace-"+w.Name+".json"), tr.spans); err != nil {
			return nil, err
		}
	}

	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = median(vals[m.Name]) // 0 where the workload never runs the layer
	}
	for name, spanName := range map[string]string{
		"httpapi.serve_ms":         "httpapi.serve",
		"httpapi.encode_ms":        "httpapi.encode",
		"dfs.mirror_build_ms":      "dfs.mirror_build",
		"core.assign_ms":           "core.assign",
		"core.index_build_ms":      "core.index_build",
		"core.canonical_ms":        "core.canonical",
		"bipartite.graph_build_ms": "bipartite.graph_build",
		"bipartite.match_ms":       "bipartite.match",
		"plancache.key_ms":         "plancache.key",
		"engine.run_ms":            "engine.run",
	} {
		out[name] = median(tr.millis(spanName))
	}
	out["httpapi.transport_ms"] = median(tr.millis("request")) - out["httpapi.serve_ms"]
	out["httpapi.non200"] = float64(non200)
	if out["engine.reads"] > 0 {
		out["engine.us_per_read"] = out["engine.run_ms"] * 1e3 / out["engine.reads"]
	}
	// The stages the service itself runs for this request: it fingerprints
	// the problem only when the plan cache is on.
	attributed := out["dfs.mirror_build_ms"] + out["core.assign_ms"] + out["httpapi.encode_ms"] + out["engine.run_ms"]
	if w.CacheOn {
		attributed += out["core.canonical_ms"] + out["plancache.key_ms"]
	}
	out["trace.attributed_frac"] = attributed / out["httpapi.serve_ms"]
	return out, nil
}

// tracePipeline does one request's work as separate direct calls, each in its
// own span under a "pipeline" span.
func tracePipeline(tr *tracer, req, root int, p *problem, served answer, add func(string, float64)) error {
	w := p.w
	pipe := tr.begin("pipeline", req, root)
	defer tr.end(pipe)

	// The decoder hands the file system flattened sizes and replica lists.
	inputs := w.Tasks * len(w.Sizes)
	sizes := make([]float64, inputs)
	arena := make([]int, len(p.replicas))
	lists := make([][]int, inputs)
	for i, node := range p.replicas {
		arena[i] = int(node)
	}
	for i := range lists {
		sizes[i] = w.Sizes[i%len(w.Sizes)]
		lists[i] = arena[i*replicasPerInput : (i+1)*replicasPerInput]
	}

	var fs *dfs.FileSystem
	var file *dfs.File
	var err error
	tr.in("dfs.mirror_build", req, pipe, func() {
		fs = dfs.New(layoutView(w.Procs), dfs.Config{Replication: 1})
		file, err = fs.CreateChunksReplicated("/layout/tasks", sizes, lists)
	})
	if err != nil {
		return err
	}
	add("dfs.chunks", float64(fs.NumChunks()))

	prob := &core.Problem{ProcNode: make([]int, w.Procs), FS: fs, Tasks: make([]core.Task, w.Tasks)}
	for i := range prob.ProcNode {
		prob.ProcNode[i] = i
	}
	backing := make([]core.Input, inputs)
	for i := range backing {
		backing[i] = core.Input{Chunk: file.Chunks[i], SizeMB: sizes[i]}
	}
	k := len(w.Sizes)
	for t := range prob.Tasks {
		prob.Tasks[t] = core.Task{ID: t, Inputs: backing[t*k : (t+1)*k : (t+1)*k]}
	}

	stagesMS := tr.in("core.index_build", req, pipe, func() {
		ix := core.NewLocalityIndex(prob)
		add("core.index_edges", float64(ix.NumEdges()))
		ix.Release()
	})

	single := k == 1
	kuhn := single && w.Tasks >= kuhnTasks
	if single {
		stagesMS += traceMatcher(tr, req, pipe, prob, int64(math.Round(w.Sizes[0])), kuhn, add)
	}

	var assigner core.Assigner = core.MultiData{Seed: p.seed}
	if single {
		sd := core.SingleData{Seed: p.seed}
		if kuhn {
			sd.Algorithm = bipartite.Kuhn
		}
		assigner = sd
	}
	var a *core.Assignment
	assignMS := tr.in("core.assign", req, pipe, func() { a, err = assigner.Assign(prob) })
	if err != nil {
		return err
	}
	// What assign spends outside the stages timed on their own above: quotas,
	// repair, bookkeeping. Those stages ran as separate calls, so within
	// noise this can read slightly negative.
	add("core.assign_self_ms", assignMS-stagesMS)
	if a.Matched != nil {
		matched := 0
		for _, m := range a.Matched {
			if m {
				matched++
			}
		}
		add("core.matched_frac", float64(matched)/float64(len(a.Matched)))
	}

	var canon []byte
	tr.in("core.canonical", req, pipe, func() { canon = prob.AppendCanonical(nil) })
	add("core.canonical_kb", float64(len(canon))/1e3)
	tr.in("plancache.key", req, pipe, func() {
		var seed [8]byte
		binary.LittleEndian.PutUint64(seed[:], uint64(p.seed))
		plancache.KeyOf(canon, []byte(assigner.Name()), seed[:])
	})

	resp := httpapi.PlanResponse{
		Strategy: assigner.Name(), Owner: a.Owner, Lists: a.Lists,
		LocalityFraction: a.LocalityFraction(),
	}
	tr.in("httpapi.encode", req, pipe, func() { _, err = json.Marshal(resp) })
	if err != nil {
		return err
	}

	if w.Route != "/v1/simulate" {
		return nil
	}
	// The options handleSimulate builds. The run mutates fs (crash, repair),
	// so it comes last.
	topo := cluster.New(w.Procs, cluster.Marmot())
	opts := engine.Options{
		Topo: topo, FS: fs, Problem: prob, Strategy: assigner.Name(),
		Replan: true, Repair: true, RepairDelay: 2, ReplanSeed: p.seed,
		Failures:     []engine.NodeFailure{{Node: p.crashNode, At: 3}},
		Degradations: []engine.NodeDegradation{{Node: p.slowNode, At: 1, DiskFactor: 0.5, NICFactor: 0.5}},
	}
	var res *engine.Result
	tr.in("engine.run", req, pipe, func() { res, err = engine.RunAssignmentContext(context.Background(), opts, a) })
	if err != nil {
		return err
	}
	if got := res.LocalFraction(); math.Abs(got-served.locality) > localityTolerance {
		return fmt.Errorf("direct engine run local fraction %.12f, service reported %.12f", got, served.locality)
	}
	add("engine.reads", float64(len(res.Records)))
	add("engine.makespan_s", res.Makespan)
	add("engine.local_frac", res.LocalFraction())
	add("engine.retries", float64(res.Retries))
	add("engine.replans", float64(res.Replans))
	add("engine.delta_replanned_tasks", float64(res.DeltaReplannedTasks))
	add("dfs.repaired_chunks", float64(res.RepairedChunks))
	add("simnet.flows_started", float64(topo.Net().Started()))
	add("simnet.flows_completed", float64(topo.Net().Completed()))
	// The paper's skew diagnostic (§III, §V-A1): most- over least-loaded
	// storage node, among the nodes that served anything.
	served0 := slices.DeleteFunc(slices.Clone(res.ServedMB), func(mb float64) bool { return mb <= 0 })
	if len(served0) > 0 {
		add("engine.served_maxmin", slices.Max(served0)/slices.Min(served0))
	}
	return nil
}

// traceMatcher times the locality-graph build and the solver alone, on a
// fresh index: the transcription core.localityGraph does, then the matcher
// the service would pick (whole-MB sizes keep the capacity unit at 1 MB). It
// returns the milliseconds of the two spans together.
func traceMatcher(tr *tracer, req, pipe int, prob *core.Problem, sizeUnits int64, kuhn bool, add func(string, float64)) float64 {
	ix := core.NewLocalityIndex(prob)
	defer ix.Release()
	m, n := prob.NumProcs(), len(prob.Tasks)

	var g *bipartite.Graph
	ms := tr.in("bipartite.graph_build", req, pipe, func() {
		byP := make([][]bipartite.Edge, m)
		for proc := range byP {
			es := ix.ProcEdges(proc)
			out := make([]bipartite.Edge, len(es))
			for i, e := range es {
				out[i] = bipartite.Edge{P: proc, F: e.Task, Weight: int64(math.Round(e.MB))}
			}
			byP[proc] = out
		}
		g = bipartite.NewGraphFromSorted(m, n, byP)
	})
	add("bipartite.edges", float64(g.NumEdges()))

	// Equal shares: the first n%m processes take one task more.
	counts := make([]int, m)
	for i := range counts {
		counts[i] = n / m
		if i < n%m {
			counts[i]++
		}
	}
	var owner []int
	if kuhn {
		ms += tr.in("bipartite.match", req, pipe, func() { owner, _ = bipartite.MatchAugmenting(g, counts) })
	} else {
		quotas := make([]int64, m)
		for i, c := range counts {
			quotas[i] = int64(c) * sizeUnits
		}
		sizes := make([]int64, n)
		for t := range sizes {
			sizes[t] = sizeUnits
		}
		ms += tr.in("bipartite.match", req, pipe, func() {
			owner = bipartite.AssignMaxLocality(g, quotas, sizes, bipartite.EdmondsKarp).Owner
		})
	}
	matched := 0
	for _, o := range owner {
		if o >= 0 {
			matched++
		}
	}
	add("bipartite.matched_tasks", float64(matched))
	return ms
}

// writeJSON writes v, indented, creating the directory.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
