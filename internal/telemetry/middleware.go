// HTTP instrumentation: request IDs, one structured log line per request,
// and per-route status/latency series in the registry.
package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// Metric family names recorded by the middleware.
const (
	MetricHTTPRequests  = "opass_http_requests_total"
	MetricHTTPDuration  = "opass_http_request_duration_seconds"
	MetricHTTPInflight  = "opass_http_inflight_requests"
	MetricHTTPRespBytes = "opass_http_response_bytes_total"
)

// RequestIDHeader carries the per-request ID on responses (and is honored
// on requests, so upstream proxies can thread their own IDs through). The
// middleware sets it before the handler runs, so a handler reads its
// request's ID from its own response header.
const RequestIDHeader = "X-Request-Id"

// newRequestID returns 8 random bytes hex-encoded; on entropy failure it
// degrades to a fixed marker rather than failing the request.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unavailable"
	}
	return hex.EncodeToString(b[:])
}

// statusRecorder captures the status code and bytes written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying ResponseWriter so http.ResponseController
// can reach optional interfaces (Flusher, deadline control) through the
// wrapper — without it, streaming handlers behind the middleware lose the
// ability to flush.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// Middleware instruments an http.Handler. Reg must be non-nil; Logger nil
// disables request logging; Route nil uses the raw URL path as the route
// label (fine for a fixed route set, a cardinality hazard otherwise).
type Middleware struct {
	Reg    *Registry
	Logger *slog.Logger
	// Route maps a request to its route label, bounding label cardinality.
	Route func(*http.Request) string
}

// Wrap returns next instrumented with request IDs, logging, and metrics.
func (m Middleware) Wrap(next http.Handler) http.Handler {
	m.Reg.Help(MetricHTTPRequests, "HTTP requests served, by route/method/status.")
	m.Reg.Help(MetricHTTPDuration, "HTTP request latency in seconds, by route.")
	m.Reg.Help(MetricHTTPInflight, "Requests currently being served.")
	m.Reg.Help(MetricHTTPRespBytes, "Response body bytes written, by route.")
	inflight := m.Reg.Gauge(MetricHTTPInflight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := r.URL.Path
		if m.Route != nil {
			route = m.Route(r)
		}
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		rec := &statusRecorder{ResponseWriter: w}
		inflight.Add(1)
		start := time.Now()
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		inflight.Add(-1)
		if rec.status == 0 { // handler wrote nothing: net/http sends 200
			rec.status = http.StatusOK
		}
		m.Reg.Counter(MetricHTTPRequests,
			L("route", route), L("method", r.Method), L("status", strconv.Itoa(rec.status))).Inc()
		m.Reg.Histogram(MetricHTTPDuration, nil, L("route", route)).Observe(elapsed.Seconds())
		m.Reg.Counter(MetricHTTPRespBytes, L("route", route)).Add(float64(rec.bytes))
		if m.Logger != nil {
			m.Logger.Info("request",
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", rec.status),
				slog.Int64("bytes", rec.bytes),
				slog.Duration("elapsed", elapsed),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}
