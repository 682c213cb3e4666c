package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// trafficHash fingerprints everything generate derives from a seed: every
// body, the warm-up bodies and the request order.
func trafficHash(w *workload, seed int64) string {
	tr := generate(w, seed, w.Requests)
	h := sha256.New()
	for _, p := range append(tr.problems, tr.warm...) {
		h.Write(p.body)
		h.Write([]byte{0})
	}
	fmt.Fprint(h, tr.order)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateIsAFunctionOfTheSeed pins the seed-1 inputs of every workload:
// a change to the generator changes what every later result means, so it must
// be deliberate.
func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	pinned := map[string]string{
		"paper-single":    "1d03d5da42a77a171b9b97bac387ac988a9efbcb29302da9bc571460e8d7b183",
		"paper-multi":     "76cc52b713cf6879e62075c467de977e47658a8629ee396b1d790d1d2cebf7f2",
		"fleet-bulk":      "bf269752c7faa0550203e4e8727460f9ad59d8bbdf90db94cda16d4edc93b83b",
		"cache-mix":       "1979e003e273174014aa58a26e9acf3179cea5f9eb4d47b12dbb05828957be5a",
		"simulate-faults": "0d787f1baf6e647593041b9577d195540fd09546dd8cae48072f9795485bf350",
	}
	for i := range workloads {
		w := &workloads[i]
		got := trafficHash(w, 1)
		if got != trafficHash(w, 1) {
			t.Errorf("%s: same seed gave different traffic", w.Name)
		}
		if got == trafficHash(w, 2) {
			t.Errorf("%s: seeds 1 and 2 gave the same traffic", w.Name)
		}
		if got != pinned[w.Name] {
			t.Errorf("%s: seed-1 traffic hash = %s, pinned %s", w.Name, got, pinned[w.Name])
		}
	}
}

// miniWorkloads are the five workloads shrunk to test size. fleet-bulk keeps
// enough tasks to stay on the Kuhn side of the solver switch.
func miniWorkloads() []workload {
	mini := make([]workload, len(workloads))
	for i, w := range workloads {
		w.Procs, w.Tasks, w.Requests, w.Distinct = 32, 320, 20, 4
		switch w.Name {
		case "fleet-bulk":
			w.Procs, w.Tasks, w.Requests = 64, kuhnTasks, 4
		case "simulate-faults":
			w.Procs, w.Tasks = 16, 160
		}
		mini[i] = w
	}
	return mini
}

// TestMiniRuns runs every workload twice at test size and checks what must
// hold on any healthy run: nothing fails, every gated metric is positive,
// seed-determined values repeat exactly, and the flushed trace is well formed.
func TestMiniRuns(t *testing.T) {
	dir := t.TempDir()
	cfg := runConfig{seed: 1, scale: 1, trace: true, traceProblems: 3, setupReps: 2, traceDir: dir}
	for _, w := range miniWorkloads() {
		first, err := runWorkload(&w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		second, err := runWorkload(&w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first.Failed != 0 || first.Attempted != w.Requests {
			t.Errorf("%s: attempted %d failed %d %v", w.Name, first.Attempted, first.Failed, first.Errors)
		}
		for _, m := range endToEnd {
			if v := first.EndToEnd[m.Name]; (v <= 0) != (m.Name == "failed_frac") {
				t.Errorf("%s: %s = %v", w.Name, m.Name, v)
			}
		}
		a := workloadResult{Name: w.Name, Runs: []*runResult{first}}
		b := workloadResult{Name: w.Name, Runs: []*runResult{second}}
		for _, diff := range countDiffs(&a, &b) {
			t.Errorf("%s: not repeatable: %s", w.Name, diff)
		}
		if len(first.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(first.PerLayer), len(perLayer))
		}
		single := len(w.Sizes) == 1
		if got := first.PerLayer["bipartite.matched_tasks"] > 0; got != single {
			t.Errorf("%s: bipartite ran = %v, want %v", w.Name, got, single)
		}
		if got := first.PerLayer["engine.reads"] > 0; got != w.Faults {
			t.Errorf("%s: engine ran = %v, want %v", w.Name, got, w.Faults)
		}
		if got := first.PerLayer["plancache.hit_frac"] > 0; got != w.CacheOn {
			t.Errorf("%s: cache hit = %v, want %v", w.Name, got, w.CacheOn)
		}
		checkTraceFile(t, filepath.Join(dir, "trace-"+w.Name+".json"))
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	self := selfNS(spans)
	for i, s := range spans {
		if s.ID != i || s.Parent >= i || s.Parent < -1 {
			t.Fatalf("%s: span %d has id %d parent %d", path, i, s.ID, s.Parent)
		}
		if s.Parent >= 0 && spans[s.Parent].Req != s.Req {
			t.Errorf("%s: span %d (%s) and its parent belong to different requests", path, i, s.Name)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %d (%s) ends before it starts", path, i, s.Name)
		}
		if self[i] < 0 || s.SelfNS != self[i] {
			t.Errorf("%s: span %d (%s) self time %d, stored %d", path, i, s.Name, self[i], s.SelfNS)
		}
	}
}

// TestValidatorRejectsCorruptPlans takes a real plan from the service and
// breaks it three ways.
func TestValidatorRejectsCorruptPlans(t *testing.T) {
	w := miniWorkloads()[0]
	b, err := setUp(&w, runConfig{seed: 1, scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	p := b.tr.problems[0]
	status, err := b.post(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkResponse(p, status, b.buf.Bytes()); err != nil {
		t.Fatalf("genuine plan rejected: %v", err)
	}
	if _, err := checkResponse(p, 503, b.buf.Bytes()); err == nil {
		t.Error("non-200 status accepted")
	}
	fresh := func() *planBody {
		var plan planBody
		if err := json.Unmarshal(b.buf.Bytes(), &plan); err != nil {
			t.Fatal(err)
		}
		return &plan
	}
	quota := w.Tasks / w.Procs
	cases := []struct {
		name, want string
		corrupt    func(*planBody)
	}{
		{"duplicate task", "listed twice", func(plan *planBody) {
			plan.Lists[1] = append(plan.Lists[1], plan.Lists[0][0])
		}},
		{"over-quota process", fmt.Sprintf("quota %d", quota), func(plan *planBody) {
			moved := plan.Lists[0][0]
			plan.Lists[0] = plan.Lists[0][1:]
			plan.Lists[1] = append(plan.Lists[1], moved)
			plan.Owner[moved] = 1
		}},
		{"wrong locality", "recomputed", func(plan *planBody) { plan.LocalityFraction -= 0.01 }},
	}
	for _, c := range cases {
		plan := fresh()
		c.corrupt(plan)
		if err := checkPlan(p, plan); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps the contract file and the metric
// and workload tables in step.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.Name)
		}
	}
	same := func(kind string, file []metric, program []metricDef) {
		if len(file) != len(program) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(program))
		}
		for i, m := range program {
			if f := file[i]; f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, f, m)
			}
		}
	}
	var gated []metricDef
	for _, m := range endToEnd {
		if m.Name != "failed_frac" { // reported as failed/attempted instead
			gated = append(gated, m)
		}
	}
	same("end_to_end", doc.EndToEnd, gated)
	same("per_layer", doc.PerLayer, perLayer)
	for _, m := range doc.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("one value: spread %v, want 0", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "req_p50_ms", Better: "lower"}
	higher := metricDef{Name: "tasks_per_s", Better: "higher"}
	cases := []struct {
		name  string
		m     metricDef
		a, b  []float64
		noisy bool
		want  string
	}{
		{"unchanged", lower, []float64{100, 101, 99}, []float64{100, 102, 98}, false, "ok"},
		{"slower beyond the bound", lower, []float64{100, 101, 99}, []float64{120, 121, 119}, false, "worse"},
		{"slower within the bound", lower, []float64{100, 101, 99}, []float64{105, 106, 104}, false, "ok"},
		{"throughput dropped", higher, []float64{100, 101, 99}, []float64{80, 81, 79}, false, "worse"},
		{"throughput rose", higher, []float64{100, 101, 99}, []float64{130, 131, 129}, false, "ok"},
		{"spread wider than the bound", lower, []float64{80, 100, 125, 140}, []float64{120, 121, 119, 120}, false, "unresolved"},
		{"noisy host", lower, []float64{100}, []float64{120}, true, "unresolved"},
		{"noisy but within the bound", lower, []float64{100, 101}, []float64{104, 105}, true, "ok"},
		{"wide spread but every run better", lower, []float64{80, 100, 125, 140}, []float64{70, 71, 69, 70}, false, "ok"},
		{"failures grew", metricDef{Name: "failed_frac", Better: "lower"}, []float64{0}, []float64{0.01}, false, "worse"},
	}
	for _, c := range cases {
		if got, _ := judge(c.m, 0.10, c.a, c.b, c.noisy); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestContractLine(t *testing.T) {
	wr := workloadResult{Name: "x", Runs: []*runResult{
		{Attempted: 10, EndToEnd: map[string]float64{"req_p50_ms": 3}},
		{Attempted: 12, Failed: 1, EndToEnd: map[string]float64{"req_p50_ms": 5}},
	}}
	line, err := json.Marshal(contractLine(&wr, false))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct == nil || *got.Correct || got.Attempted != 22 || got.Failed != 1 {
		t.Errorf("result line %s", line)
	}
	if m := got.Metrics["req_p50_ms"]; m.Value != 4 || m.Unit != "ms" {
		t.Errorf("req_p50_ms = %+v, want the median 4 ms", m)
	}
	if _, ok := got.Metrics["failed_frac"]; ok || len(got.Metrics) != len(endToEnd)-1 {
		t.Errorf("metrics %v: want every end-to-end metric but failed_frac", got.Metrics)
	}
}
