package telemetry

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMiddlewareStampsRequestID: the ID is on the response header before the
// handler runs, so the handler reads the ID the client will see.
func TestMiddlewareStampsRequestID(t *testing.T) {
	reg := NewRegistry()
	var sawID string
	h := Middleware{Reg: reg}.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawID = w.Header().Get(RequestIDHeader)
		w.WriteHeader(http.StatusTeapot)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	hdr := rec.Header().Get(RequestIDHeader)
	if hdr == "" || hdr != sawID {
		t.Fatalf("request ID header %q, handler saw %q", hdr, sawID)
	}
	// A caller-supplied ID is threaded through untouched.
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set(RequestIDHeader, "upstream-7")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Header().Get(RequestIDHeader) != "upstream-7" || sawID != "upstream-7" {
		t.Fatalf("upstream ID not honored: header %q, handler saw %q", rec.Header().Get(RequestIDHeader), sawID)
	}
}

func TestMiddlewareRecordsMetrics(t *testing.T) {
	reg := NewRegistry()
	h := Middleware{
		Reg:   reg,
		Route: func(r *http.Request) string { return "/route" },
	}.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fail" {
			http.Error(w, "nope", http.StatusBadRequest)
			return
		}
		w.Write([]byte("hello"))
	}))
	for _, p := range []string{"/ok", "/ok", "/fail"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", p, nil))
	}
	if got := reg.Counter(MetricHTTPRequests, L("route", "/route"), L("method", "GET"), L("status", "200")).Value(); got != 2 {
		t.Fatalf("200 count = %v, want 2", got)
	}
	if got := reg.Counter(MetricHTTPRequests, L("route", "/route"), L("method", "GET"), L("status", "400")).Value(); got != 1 {
		t.Fatalf("400 count = %v, want 1", got)
	}
	if got := reg.Histogram(MetricHTTPDuration, nil, L("route", "/route")).Snapshot().Count; got != 3 {
		t.Fatalf("latency observations = %d, want 3", got)
	}
	if got := reg.Gauge(MetricHTTPInflight).Value(); got != 0 {
		t.Fatalf("inflight after drain = %v, want 0", got)
	}
	if got := reg.Counter(MetricHTTPRespBytes, L("route", "/route")).Value(); got < 10 {
		t.Fatalf("response bytes = %v, want >= 10", got)
	}
}

func TestMiddlewareLogsOneLinePerRequest(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	h := Middleware{Reg: NewRegistry(), Logger: logger}.Wrap(
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusNotFound)
		}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/plan", nil))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d log lines, want 1: %q", len(lines), buf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("log line is not JSON: %v", err)
	}
	if entry["method"] != "POST" || entry["path"] != "/v1/plan" || entry["status"] != float64(404) {
		t.Fatalf("log entry fields wrong: %v", entry)
	}
	if id, _ := entry["id"].(string); id == "" {
		t.Fatal("log entry has no request id")
	}
}
