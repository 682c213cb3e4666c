package httpapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"opass/internal/core"
	"opass/internal/report"
	"opass/internal/telemetry"
)

// encodeReference is what json.Encoder writes for v: compact, or indented as
// ?pretty=1 asks.
func encodeReference(v any, pretty bool) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if pretty {
		enc.SetIndent("", "  ")
	}
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// planRequests are a compact and a ?pretty=1 /v1/plan request.
func planRequests() map[bool]*http.Request {
	return map[bool]*http.Request{
		false: httptest.NewRequest(http.MethodPost, "/v1/plan", nil),
		true:  httptest.NewRequest(http.MethodPost, "/v1/plan?pretty=1", nil),
	}
}

// checkRender holds every body the renderer builds for resp to encoding/json's
// bytes for the same value: the /v1/plan body compact (a cached plan's bytes
// and its shared-tier value) and indented, the streamed /v1/plan 200, and the
// /v1/simulate envelope. A value encoding/json refuses must fail with its
// error text and have written no byte.
func checkRender(t *testing.T, resp PlanResponse) {
	t.Helper()
	// The summary's float differs from the plan's (3x overflows to +Inf
	// where the plan's is finite), so error order is checked too.
	sum := report.Summary{Strategy: resp.Strategy, Tasks: len(resp.Owner), Makespan: resp.LocalityFraction * 3}
	same := func(what string, got []byte, gotErr error, want []byte, wantErr error) {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, encoding/json %v", what, gotErr, wantErr)
		}
		if gotErr != nil {
			if got != nil {
				t.Fatalf("%s: %d bytes rendered beside the error", what, len(got))
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %.300q\nwant %.300q", what, got, want)
		}
	}
	for pretty, r := range planRequests() {
		want, wantErr := encodeReference(resp, pretty)
		got, err := planBody(&resp)
		if err == nil {
			got = prettyIf(r, got)
		}
		same("plan body", got, err, want, wantErr)
		if !pretty {
			if err == nil && cap(got) != len(got) {
				t.Fatalf("plan body: cap %d, len %d; the alias bytes are sized exactly", cap(got), len(got))
			}
			checkStreamed(t, r, resp, want, wantErr)
		}
		sim := SimulateResponse{Plan: resp, Summary: sum}
		want, wantErr = encodeReference(sim, pretty)
		got, err = simulateBody(r, &sim)
		same("simulate body", got, err, want, wantErr)
	}
}

// checkStreamed holds streamPlan's 200 to want, or, when encoding/json
// refused the value, to a 500 envelope naming wantErr with no 200 byte
// written.
func checkStreamed(t *testing.T, r *http.Request, resp PlanResponse, want []byte, wantErr error) {
	t.Helper()
	reg := telemetry.NewRegistry()
	s := NewServer(ServerOptions{Registry: reg})
	rec := httptest.NewRecorder()
	s.streamPlan(rec, r, &resp, make([]byte, windowSize))
	if wantErr == nil {
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("streamed: status %d\n got %.300q\nwant %.300q", rec.Code, rec.Body.Bytes(), want)
		}
		return
	}
	var e errorBody
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error != wantErr.Error() {
		t.Fatalf("streamed: status %d, body %q; want 500 naming %q", rec.Code, rec.Body.Bytes(), wantErr)
	}
	if got := metricValue(t, reg, MetricResponseErrors, `route="/v1/plan"`); got != 1 {
		t.Fatalf("streamed: response-error counter = %v, want 1", got)
	}
}

// renderFloats are the floats at each of encoding/json's format switches.
var renderFloats = []float64{0, math.Copysign(0, -1), 0.1, 1, 1e-7, 9.999e-7, 1e-6, 1e20, 1e21, 5e-324, math.MaxFloat64, -2.5e-8, -1e21, 0.9859375, 12.345}

func TestRenderPlanMatchesEncodingJSON(t *testing.T) {
	var boundaries []int
	for p := 1; p <= 1e7; p *= 10 {
		boundaries = append(boundaries, p-1, p, -p, -(p - 1))
	}
	boundaries = append(boundaries, math.MaxInt, math.MinInt)
	cases := map[string]PlanResponse{
		"nil owner and lists":   {Strategy: "opass-flow"},
		"empty owner and lists": {Strategy: "rank-static", Owner: []int{}, Lists: [][]int{}},
		"empty and nil rows": {Strategy: "opass-exact", Owner: []int{0, 2, 0, 0},
			Lists: [][]int{{0, 3}, nil, {1}, {}, nil}, LocalityFraction: 0.5, PlannerMillis: 0.125},
		"digit boundaries": {Strategy: "random-static", Owner: boundaries, Lists: [][]int{boundaries, {7}}},
	}
	for _, f := range renderFloats {
		cases[fmt.Sprint("float ", f)] = PlanResponse{Strategy: "opass-flow", Owner: []int{1}, Lists: [][]int{nil, {0}},
			LocalityFraction: f, PlannerMillis: -f}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases[fmt.Sprint("refused locality ", f)] = PlanResponse{Strategy: "opass-flow", Owner: []int{0}, LocalityFraction: f}
		cases[fmt.Sprint("refused planner_ms ", f)] = PlanResponse{Strategy: "opass-flow", Owner: []int{0}, PlannerMillis: f}
	}
	for name, resp := range cases {
		t.Run(name, func(t *testing.T) { checkRender(t, resp) })
	}
}

// fuzzPlan draws a plan from data: a row count, then rows of ints whose
// width and sign the bytes choose (a zero-length draw is a nil row), then two
// floats from raw bits, NaN and ±Inf included.
func fuzzPlan(data []byte) PlanResponse {
	next := func(n int) uint64 {
		var word [8]byte
		k := copy(word[:], data[:min(n, len(data))])
		data = data[k:]
		return binary.LittleEndian.Uint64(word[:])
	}
	ints := func() []int {
		n := int(next(1) % 12)
		if n == 0 {
			return nil
		}
		xs := make([]int, n-1)
		for i := range xs {
			width := int(next(1)%8) + 1
			xs[i] = int(next(width))
			if width < 8 && next(1)%4 == 0 {
				xs[i] = -xs[i]
			}
		}
		return xs
	}
	resp := PlanResponse{Strategy: "opass-flow", Owner: ints()}
	if rows := int(next(1) % 8); rows > 0 {
		resp.Lists = make([][]int, rows-1)
		for i := range resp.Lists {
			resp.Lists[i] = ints()
		}
	}
	resp.LocalityFraction = math.Float64frombits(next(8))
	resp.PlannerMillis = math.Float64frombits(next(8))
	return resp
}

func FuzzRenderPlan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 9, 3, 1, 99, 0, 2, 2, 0xe8, 0x03, 4, 0, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	for _, x := range renderFloats {
		var b [24]byte
		b[0], b[1] = 1, 1
		binary.LittleEndian.PutUint64(b[2:], math.Float64bits(x))
		f.Add(b[:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRender(t, fuzzPlan(data))
	})
}

// syntheticPlan is a plan of the shape the planners return: tasks owned by
// seeded processes, each process's list in task order.
func syntheticPlan(procs, tasks int) PlanResponse {
	rng := rand.New(rand.NewSource(1))
	resp := PlanResponse{Strategy: "opass-flow", Owner: make([]int, tasks), Lists: make([][]int, procs),
		LocalityFraction: 0.9859375, PlannerMillis: 12.345}
	for t := range resp.Owner {
		p := rng.Intn(procs)
		resp.Owner[t] = p
		resp.Lists[p] = append(resp.Lists[p], t)
	}
	return resp
}

// writeRecorder is a ResponseWriter that keeps every Write it is handed, and
// fails the failAt-th one when failAt is set.
type writeRecorder struct {
	discardResponse
	writes [][]byte
	failAt int
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	if len(w.writes) == w.failAt {
		return 0, errors.New("connection reset")
	}
	return len(p), nil
}

// TestStreamedPlanWritesWindows: a 25,600-task plan streams in window-sized
// Writes, at least three of them, that concatenate to json.Encoder's bytes.
// TestErrorBodyMatchesEncodingJSON holds writeError's body to json.Encoder's
// bytes for the same envelope, compact and under ?pretty=1, over messages
// with HTML characters, quotes, control characters and invalid UTF-8.
func TestErrorBodyMatchesEncodingJSON(t *testing.T) {
	s := NewServer(ServerOptions{})
	for _, msg := range []string{"", "server draining", `<a href="x">&amp;</a>`, "tab\tnew\nline\x00\x1f\x7f", "bad \xff\xfe utf-8 \u2028\u2029", `back\slash "quoted"`} {
		for pretty, r := range planRequests() {
			want, err := encodeReference(errorBody{Error: msg}, pretty)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			s.writeError(rec, r, http.StatusBadRequest, msg)
			if rec.Code != http.StatusBadRequest || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%q (pretty %v): status %d, Content-Type %q", msg, pretty, rec.Code, rec.Header().Get("Content-Type"))
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%q (pretty %v):\n got %q\nwant %q", msg, pretty, rec.Body.Bytes(), want)
			}
		}
	}
}

func TestStreamedPlanWritesWindows(t *testing.T) {
	resp := syntheticPlan(256, 25600)
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
	want, err := encodeReference(resp, false)
	if err != nil {
		t.Fatal(err)
	}
	w := &writeRecorder{discardResponse: discardResponse{header: http.Header{}}}
	NewServer(ServerOptions{}).streamPlan(w, r, &resp, make([]byte, windowSize))
	if len(w.writes) < 3 {
		t.Fatalf("%d Writes for a %d B body, want at least 3", len(w.writes), len(want))
	}
	for i, p := range w.writes {
		if len(p) > windowSize {
			t.Fatalf("Write %d is %d B, over the %d B window", i, len(p), windowSize)
		}
	}
	if got := bytes.Join(w.writes, nil); !bytes.Equal(got, want) {
		t.Fatalf("streamed bytes differ from json.Encoder's: %d vs %d B", len(got), len(want))
	}
	if w.status != http.StatusOK || w.header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q", w.status, w.header.Get("Content-Type"))
	}
}

// TestStreamedPlanCountsOneWriteFailure: a client that hangs up after the
// first window is counted once, however many windows were left.
func TestStreamedPlanCountsOneWriteFailure(t *testing.T) {
	reg := telemetry.NewRegistry()
	resp := syntheticPlan(256, 25600)
	w := &writeRecorder{discardResponse: discardResponse{header: http.Header{}}, failAt: 2}
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
	NewServer(ServerOptions{Registry: reg}).streamPlan(w, r, &resp, make([]byte, windowSize))
	if len(w.writes) != 2 {
		t.Fatalf("%d Writes, want the render to stop at the failed second", len(w.writes))
	}
	if got := metricValue(t, reg, MetricResponseErrors, `route="/v1/plan"`); got != 1 {
		t.Fatalf("response-error counter = %v, want 1", got)
	}
}

// TestStreamedPlanAllocatesNothing: a warm render of a 25,600-task plan
// through the request's window into a discarding writer allocates nothing.
// Skipped under -race, like the other allocation clauses.
func TestStreamedPlanAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation clauses run without the race detector")
	}
	resp := syntheticPlan(256, 25600)
	s := NewServer(ServerOptions{})
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
	w := &discardResponse{header: http.Header{}}
	req := &PlanRequest{arena: &lexer{buf: make([]byte, windowSize)}}
	if allocs := testing.AllocsPerRun(20, func() { s.streamPlan(w, r, &resp, req.window()) }); allocs != 0 {
		t.Fatalf("a warm streamed render allocated %.0f objects, want 0", allocs)
	}
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
}

// TestStrategyNamesNeedNoEscaping: the renderer appends the strategy raw, so
// every name a request can resolve to must marshal as itself in quotes.
func TestStrategyNamesNeedNoEscaping(t *testing.T) {
	for _, strategy := range []string{"opass", "greedy", "rank", "random"} {
		for _, multi := range []bool{false, true} {
			as, err := core.AssignerFor(strategy, 1, multi)
			if err != nil {
				t.Fatal(err)
			}
			name := as.Name()
			if got, err := json.Marshal(name); err != nil || string(got) != `"`+name+`"` {
				t.Fatalf("strategy %q (multi %v) resolves to %q, which marshals as %s (%v)", strategy, multi, name, got, err)
			}
		}
	}
}

// BenchmarkRenderPlan times one /v1/plan 200 body over a 256-process plan of
// 2,560 and 25,600 tasks: encoding-json is json.Encoder, the reflecting
// encoder the renderer replaced, and render is streamPlan through a window.
func BenchmarkRenderPlan(b *testing.B) {
	s := NewServer(ServerOptions{})
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
	win := make([]byte, windowSize)
	for _, tasks := range []int{2560, 25600} {
		resp := syntheticPlan(256, tasks)
		arms := map[string]func(w http.ResponseWriter){
			"encoding-json": func(w http.ResponseWriter) { _ = json.NewEncoder(w).Encode(resp) },
			"render":        func(w http.ResponseWriter) { s.streamPlan(w, r, &resp, win) },
		}
		for _, arm := range []string{"encoding-json", "render"} {
			b.Run(fmt.Sprintf("%s/tasks=%d", arm, tasks), func(b *testing.B) {
				w := &discardResponse{header: http.Header{}}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					arms[arm](w)
				}
			})
		}
	}
}
