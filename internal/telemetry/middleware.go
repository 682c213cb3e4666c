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
	"unsafe"
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

// statusRecorder captures the status code and bytes written by a handler.
// It also carries the request ID's storage — a generated ID's bytes and the
// header's value slice — so the three cost the middleware one allocation.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	raw    [8]byte
	hexID  [16]byte
	header [1]string
}

// newRequestID returns 8 random bytes hex-encoded into r; on entropy failure
// it degrades to a fixed marker rather than failing the request. The string
// shares r's bytes, which are never written again.
func (r *statusRecorder) newRequestID() string {
	if _, err := rand.Read(r.raw[:]); err != nil {
		return "unavailable"
	}
	hex.Encode(r.hexID[:], r.raw[:])
	return unsafe.String(&r.hexID[0], len(r.hexID))
}

// statusLabels are the status label values of the codes the service sends,
// so counting a request builds no string; any other code is formatted.
var statusLabels = map[int]string{
	http.StatusOK:                    "200",
	http.StatusBadRequest:            "400",
	http.StatusNotFound:              "404",
	http.StatusMethodNotAllowed:      "405",
	http.StatusRequestEntityTooLarge: "413",
	http.StatusTooManyRequests:       "429",
	499:                              "499", // client closed the request
	http.StatusInternalServerError:   "500",
	http.StatusServiceUnavailable:    "503",
}

// statusLabel is code's status label value.
func statusLabel(code int) string {
	if l, ok := statusLabels[code]; ok {
		return l
	}
	return strconv.Itoa(code)
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
		rec := &statusRecorder{ResponseWriter: w}
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = rec.newRequestID()
		}
		rec.header[0] = id
		w.Header()[RequestIDHeader] = rec.header[:]
		inflight.Add(1)
		start := time.Now()
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		inflight.Add(-1)
		if rec.status == 0 { // handler wrote nothing: net/http sends 200
			rec.status = http.StatusOK
		}
		m.Reg.Counter(MetricHTTPRequests,
			L("route", route), L("method", r.Method), L("status", statusLabel(rec.status))).Inc()
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
