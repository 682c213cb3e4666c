// Package httpapi exposes the Opass planners as a JSON-over-HTTP service —
// the integration surface a real deployment would use: an application (or
// its job submitter) posts the block layout it read from its namenode plus
// its task list, and receives the task→process assignment to execute. A
// second endpoint runs the full cluster simulation on the submitted layout,
// so capacity questions ("what would this job's makespan be?") can be
// answered without touching the cluster.
//
// Endpoints:
//
//	GET  /healthz      liveness probe
//	GET  /metrics      Prometheus-style text exposition of service metrics
//	POST /v1/plan      compute an assignment for a submitted layout
//	POST /v1/simulate  plan + simulate execution, returning trace statistics
//
// The service is stateless; every request carries its complete layout.
// Every request is stamped with an X-Request-Id, logged as one structured
// line, and counted by route/status; planner latency and achieved locality
// are recorded per strategy, and each simulation updates engine gauges
// (makespan, tasks run, retries) — see internal/telemetry.
//
// Request lifecycle: the expensive routes sit behind bounded admission (a
// per-route weighted semaphore sized in work units, with a bounded queue
// wait — see admission.go) and run under a per-request deadline. A request
// that cannot be admitted in time is shed with 429 + Retry-After; a
// draining server sheds with 503; a request whose deadline expires or whose
// client disconnects is cancelled cooperatively all the way through the
// planner's flow loops and the simulation's event loop, releasing its
// admission grant promptly instead of burning CPU for an absent client.
package httpapi

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"opass/internal/core"
	"opass/internal/engine"
	"opass/internal/plancache"
	"opass/internal/report"
	"opass/internal/telemetry"
)

// Metric family names recorded by the handler (beyond the per-route series
// the telemetry middleware owns).
const (
	MetricPlannerLatency = "opass_planner_latency_seconds"
	MetricPlanLocality   = "opass_plan_locality_fraction"
	MetricPlans          = "opass_plans_total"
	MetricSimRuns        = "opass_sim_runs_total"
	MetricSimTasks       = "opass_sim_tasks_total"
	// MetricEngineRetries, MetricEngineReplans and MetricEngineRepairedChunks
	// count the engine's fault-recovery work across all simulations: reads
	// retried after a DataNode loss, backlog replans spliced into running
	// jobs, and chunks restored to full replication by the repair pass.
	MetricEngineRetries        = "opass_engine_retries_total"
	MetricEngineReplans        = "opass_engine_replans_total"
	MetricEngineRepairedChunks = "opass_engine_repaired_chunks_total"
	// MetricEngineDeltaReplanned counts tasks re-matched by incremental
	// (delta) replans — the surgical subset of each backlog actually moved,
	// as opposed to MetricEngineReplans which counts whole splice events.
	MetricEngineDeltaReplanned = "opass_engine_delta_replanned_tasks_total"
	// MetricEngineRackLocalMB / MetricEngineCrossRackMB split the engine's
	// remote read traffic by rack boundary: bytes served within the
	// reader's rack vs bytes that crossed a rack uplink (the traffic an
	// oversubscribed core fabric charges for).
	MetricEngineRackLocalMB = "opass_engine_rack_local_mb_total"
	MetricEngineCrossRackMB = "opass_engine_cross_rack_mb_total"
	// MetricSimEngineSeconds observes the host time of the engine stage of a
	// /v1/simulate request (everything after the plan), and MetricSimEvents /
	// MetricSimRateRecomputes count the simulator's work inside it: events
	// stepped and max-min rate solves. With the planner-latency histogram
	// they split one simulate request into plan and simulate.
	MetricSimEngineSeconds  = "opass_sim_engine_seconds"
	MetricSimEvents         = "opass_sim_events_total"
	MetricSimRateRecomputes = "opass_sim_rate_recomputes_total"
	MetricSimLastMakespan   = "opass_sim_last_makespan_seconds"
	MetricSimLastTasksRun   = "opass_sim_last_tasks_run"
	MetricSimLastRetries    = "opass_sim_last_retries"
	MetricSimLastLocality   = "opass_sim_last_local_fraction"
	MetricRequestsRejected  = "opass_requests_rejected_total"
	// MetricRequestsShed counts requests refused by the admission layer,
	// by route and reason (queue_timeout, draining).
	MetricRequestsShed = "opass_requests_shed_total"
	// MetricRequestsCancelled counts admitted requests abandoned mid-work,
	// by route and reason (deadline, disconnect).
	MetricRequestsCancelled = "opass_requests_cancelled_total"
	// MetricRequestQueueSeconds observes time spent waiting for admission.
	MetricRequestQueueSeconds = "opass_request_queue_seconds"
	// MetricRequestDecodeSeconds observes the request decoder: reading the
	// body, scanning it, validating it and copying out the layout arrays the
	// planners read placement from.
	MetricRequestDecodeSeconds = "opass_request_decode_seconds"
	// MetricResponseErrors counts response bodies that failed to encode or
	// write (typically the client hanging up mid-body).
	MetricResponseErrors = "opass_response_write_errors_total"
	// MetricPlanCacheHits counts plans served from the fingerprinted plan
	// cache without running the planner.
	MetricPlanCacheHits = "opass_plan_cache_hits_total"
	// MetricPlanCacheMisses counts plans that ran the planner (and, on
	// success, populated the cache).
	MetricPlanCacheMisses = "opass_plan_cache_misses_total"
	// MetricPlanCacheCoalesced counts requests that attached to another
	// request's in-flight planner run instead of starting their own.
	MetricPlanCacheCoalesced = "opass_plan_cache_coalesced_total"
	// MetricPlanCacheEvictions counts cache entries dropped by the
	// entry/byte bounds.
	MetricPlanCacheEvictions = "opass_plan_cache_evictions_total"
	// MetricPlanCacheEntries and MetricPlanCacheBytes gauge the cache's
	// current footprint.
	MetricPlanCacheEntries = "opass_plan_cache_entries"
	MetricPlanCacheBytes   = "opass_plan_cache_bytes"
	// MetricPlanCacheRemote* count the shared (L2) plan-cache tier's
	// traffic: plans adopted from another replica (hits), lookups that fell
	// through to the local planner (misses), backend failures treated as
	// misses (errors), and plans published for the fleet (sets).
	MetricPlanCacheRemoteHits   = "opass_plan_cache_remote_hits_total"
	MetricPlanCacheRemoteMisses = "opass_plan_cache_remote_misses_total"
	MetricPlanCacheRemoteErrors = "opass_plan_cache_remote_errors_total"
	MetricPlanCacheRemoteSets   = "opass_plan_cache_remote_sets_total"
)

// Admission and deadline defaults; ServerOptions overrides them and opassd
// exposes them as flags.
const (
	// DefaultMaxInflight is the per-route admission capacity in work units
	// (one unit per task plus one per input across concurrent requests),
	// sized so one at-limit request (1M tasks and their inputs) fits.
	DefaultMaxInflight = 1 << 22
	// DefaultQueueWait bounds how long a request may wait for admission
	// before being shed with 429.
	DefaultQueueWait = 2 * time.Second
	// DefaultRequestTimeout is the per-request processing deadline, kept
	// below opassd's 60s WriteTimeout so the service cancels work while the
	// client can still be told about it.
	DefaultRequestTimeout = 55 * time.Second
)

// Plan-cache defaults; ServerOptions overrides them and opassd exposes them
// as flags.
const (
	// DefaultPlanCacheEntries bounds how many fingerprinted plans are kept.
	DefaultPlanCacheEntries = 4096
	// DefaultPlanCacheMB bounds the cache's estimated memory in MiB.
	DefaultPlanCacheMB = 64
)

// Shared-tier defaults; ServerOptions overrides them and opassd exposes
// them as flags.
const (
	// DefaultRemoteTierNamespace prefixes every remote tier key. Bump it
	// when the tier's wire format (a compact /v1/plan 200) changes so
	// mixed-version fleets land in disjoint keyspaces instead of failing to
	// decode each other.
	DefaultRemoteTierNamespace = "opass2"
	// DefaultRemoteTierTTL bounds a published plan's remote lifetime, and so
	// how long plans from an older binary stay reachable fleet-wide during a
	// rolling deploy.
	DefaultRemoteTierTTL = 10 * time.Minute
)

// statusClientClosedRequest is the nginx-convention status recorded when
// the client disconnected before the response; it is never seen by the
// (absent) client but keeps the telemetry middleware's status label honest.
const statusClientClosedRequest = 499

// InputSpec is one data dependency of a task: its size and the nodes
// holding a replica (as reported by the namenode).
type InputSpec struct {
	SizeMB   float64 `json:"size_mb"`
	Replicas []int   `json:"replicas"`
}

// TaskSpec is one data-processing task.
type TaskSpec struct {
	Inputs []InputSpec `json:"inputs"`
}

// PlanRequest is the body of POST /v1/plan and /v1/simulate.
type PlanRequest struct {
	// Nodes is the cluster size; processes default to one per node
	// (ProcNodes overrides placement of process rank i).
	Nodes     int        `json:"nodes"`
	ProcNodes []int      `json:"proc_nodes,omitempty"`
	Strategy  string     `json:"strategy,omitempty"` // opass (alias greedy) | rank | random
	Seed      int64      `json:"seed,omitempty"`
	Tasks     []TaskSpec `json:"tasks"`

	// The fault model below only affects /v1/simulate (and is excluded
	// from the plan-cache fingerprint): /v1/plan answers from the layout
	// as given. Failures and Degradations are the engine's own types;
	// engine.ValidateFaults checks them. Replan re-runs the planner over
	// the not-yet-started backlog whenever the placement truth changes
	// mid-run; Repair re-replicates under-replicated chunks
	// RepairDelaySeconds after a permanent crash.
	Failures           []engine.NodeFailure     `json:"failures,omitempty"`
	Degradations       []engine.NodeDegradation `json:"degradations,omitempty"`
	Replan             bool                     `json:"replan,omitempty"`
	Repair             bool                     `json:"repair,omitempty"`
	RepairDelaySeconds float64                  `json:"repair_delay_seconds,omitempty"`

	// weight caches the admission work estimate (tasks + inputs) computed
	// by the decoder, which leaves Tasks empty: the decoded problem's tasks
	// are arena arrays.
	weight int64
	// arena is the pooled lexer whose arrays the decoded problem borrows;
	// nil when the problem borrows nothing (the reference decoder's).
	arena *lexer
}

// release returns the arena the request's problem borrows to the pool; the
// problem must not be read afterwards. A request that holds none is a no-op.
func (req *PlanRequest) release() {
	if req.arena != nil {
		req.arena.release()
		req.arena = nil
	}
}

// window is the request's decode window, idle once the problem is decoded,
// for the response to stream through; a request without an arena gets a
// fresh one.
func (req *PlanRequest) window() []byte {
	if req.arena != nil {
		return req.arena.buf
	}
	return make([]byte, windowSize)
}

// canonical appends prob's canonical encoding (core.Problem.AppendCanonical)
// to the arena's pooled buffer, which is valid exactly as long as the problem.
func (req *PlanRequest) canonical(prob *core.Problem) []byte {
	if req.arena == nil {
		return prob.AppendCanonical(nil)
	}
	req.arena.canon = prob.AppendCanonical(req.arena.canon[:0])
	return req.arena.canon
}

// world is the simulation world the arena carries for the request to
// rebuild, valid as long as the problem; a request without an arena gets a
// fresh one.
func (req *PlanRequest) world() *world {
	if req.arena == nil {
		return new(world)
	}
	if req.arena.world == nil {
		req.arena.world = new(world)
	}
	return req.arena.world
}

// abandon gives the arena up to the GC instead of the pool, counting it as
// returned. After a planner error the problem may still be read: plancache.Do
// runs a flight leader's compute detached, so a leader that left keeps
// planning its problem.
func (req *PlanRequest) abandon() {
	if req.arena != nil {
		lexersOut.Add(-1)
		req.arena = nil
	}
}

// PlanResponse is the body returned by POST /v1/plan.
type PlanResponse struct {
	Strategy string  `json:"strategy"`
	Owner    []int   `json:"owner"`
	Lists    [][]int `json:"lists"`
	// LocalityFraction is the fraction of input bytes co-located with their
	// assigned process.
	LocalityFraction float64 `json:"locality_fraction"`
	PlannerMillis    float64 `json:"planner_ms"`
}

// SimulateResponse is the body returned by POST /v1/simulate.
type SimulateResponse struct {
	Plan    PlanResponse   `json:"plan"`
	Summary report.Summary `json:"summary"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// apiError pairs an HTTP status with the rejection-reason bucket the
// rejected-requests counter records.
type apiError struct {
	status int
	reason string
	err    error
}

func (e *apiError) Error() string { return e.err.Error() }

// badRequest builds a 400 apiError bucketed under reason.
func badRequest(reason, format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, reason: reason, err: fmt.Errorf(format, args...)}
}

// ServerOptions configures the handler's telemetry and admission limits.
type ServerOptions struct {
	// Registry receives service metrics; nil creates a private one.
	Registry *telemetry.Registry
	// Logger receives one structured line per request; nil disables
	// request logging.
	Logger *slog.Logger
	// MaxInflight is the per-route admission capacity in work units
	// (tasks + inputs of concurrently admitted requests); 0 means
	// DefaultMaxInflight.
	MaxInflight int64
	// QueueWait bounds the admission wait before a request is shed with
	// 429; 0 means DefaultQueueWait.
	QueueWait time.Duration
	// RequestTimeout is the per-request processing deadline; 0 means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// PlanCacheEntries bounds the fingerprinted plan cache's entry count;
	// 0 means DefaultPlanCacheEntries, negative disables the cache (every
	// request runs the planner).
	PlanCacheEntries int
	// PlanCacheMB bounds the plan cache's estimated memory in MiB; 0 means
	// DefaultPlanCacheMB. Entries never expire: the fingerprint covers every
	// byte a planner reads, so an entry cannot go stale.
	PlanCacheMB int
	// Limits overrides the request-decode bounds; zero fields mean the
	// package defaults (see RequestLimits).
	Limits RequestLimits
	// RemoteTier, when non-nil, is the shared L2 plan cache consulted
	// (and populated) inside the planner singleflight, letting N opassd
	// replicas dedupe planner work fleet-wide. Backend failures degrade
	// to local-only caching, never to errors.
	RemoteTier plancache.Tier
	// RemoteTierNamespace prefixes every remote tier key, versioning the
	// fleet keyspace; "" means DefaultRemoteTierNamespace.
	RemoteTierNamespace string
	// RemoteTierTTL bounds a published plan's remote lifetime; 0 means
	// DefaultRemoteTierTTL, negative means no expiry.
	RemoteTierTTL time.Duration
}

// Server is the Opass planning service: an http.Handler plus the drain
// control a graceful shutdown needs.
type Server struct {
	reg        *telemetry.Registry
	logger     *slog.Logger
	handler    http.Handler
	planAdmit  *admitter
	simAdmit   *admitter
	queueWait  time.Duration
	reqTimeout time.Duration
	// limits bounds the request decoder. decode is decodeProblem; tests swap
	// in their encoding/json reference decoder to compare the two.
	limits RequestLimits
	decode func(http.ResponseWriter, *http.Request, RequestLimits) (*PlanRequest, *core.Problem, *apiError)
	// tier is the shared L2 plan cache (nil when not configured); tierNS
	// and tierTTL shape its keys and entry lifetimes.
	tier    plancache.Tier
	tierNS  string
	tierTTL time.Duration
	// planCache memoizes planner results by problem fingerprint; nil when
	// disabled. /v1/plan and /v1/simulate share it (the simulation itself
	// is never cached). keyer derives its keys — body aliases and plan
	// fingerprints — as MACs under a key no one outside the process sees.
	planCache *plancache.Cache[cachedPlan]
	keyer     *plancache.Keyer
	// scrapeMu orders cacheMetrics' copies of the cache's totals.
	scrapeMu sync.Mutex
	// plannerRan, when set, is called once per actual planner invocation —
	// a test hook proving cache hits and coalesced requests skip the
	// planner.
	plannerRan func()
}

// cachedPlan is the unit the plan cache stores. Under a plan fingerprint it
// is the response and body, its compact /v1/plan 200; under a body alias it
// is only body, the 200 that body got (for a compact query, the plan entry's
// own bytes). Both are immutable once cached (the engine copies the lists it
// consumes).
//
// Outside the cache, a plan the planner just made may borrow its answer:
// resp's Owner and Lists are then asg's pooled storage, valid until
// asg.Release, which the handler calls once the response is written. A plan
// a cache entry keeps, or one the shared tier sent, owns heap storage and
// has no asg.
type cachedPlan struct {
	resp PlanResponse
	body []byte
	asg  *core.Assignment
}

// routeLabel bounds metric label cardinality to the known route set.
func routeLabel(r *http.Request) string {
	switch r.URL.Path {
	case "/healthz", "/metrics", "/v1/plan", "/v1/simulate":
		return r.URL.Path
	default:
		return "other"
	}
}

// NewServer builds the service wired to the given telemetry sinks and
// admission limits.
func NewServer(opts ServerOptions) *Server {
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	reg.Help(MetricPlannerLatency, "Planner wall time in seconds, by strategy.")
	reg.Help(MetricPlanLocality, "Planned locality fraction (local bytes / total bytes), by strategy.")
	reg.Help(MetricPlans, "Successful plans computed, by strategy.")
	reg.Help(MetricSimRuns, "Simulations executed.")
	reg.Help(MetricSimTasks, "Tasks executed across all simulations.")
	reg.Help(MetricEngineRetries, "Reads retried after DataNode failures across all simulations.")
	reg.Help(MetricEngineReplans, "Backlog replans spliced into running simulations.")
	reg.Help(MetricEngineRepairedChunks, "Chunks restored to full replication by the repair pass, across all simulations.")
	reg.Help(MetricEngineDeltaReplanned, "Tasks re-matched by incremental (delta) replans across all simulations.")
	reg.Help(MetricEngineRackLocalMB, "Remote megabytes served within the reader's rack, across all simulations.")
	reg.Help(MetricEngineCrossRackMB, "Remote megabytes that crossed a rack uplink, across all simulations.")
	reg.Help(MetricSimEngineSeconds, "Host time the simulation engine ran for one simulate request, in seconds.")
	reg.Help(MetricSimEvents, "Simulator events stepped (delay expiries and completion batches) across all simulations.")
	reg.Help(MetricSimRateRecomputes, "Max-min fair rate recomputations across all simulations.")
	reg.Help(MetricSimLastMakespan, "Makespan of the most recent simulation, seconds of virtual time.")
	reg.Help(MetricSimLastTasksRun, "Tasks executed by the most recent simulation.")
	reg.Help(MetricSimLastRetries, "Retried reads in the most recent simulation.")
	reg.Help(MetricSimLastLocality, "Achieved local-read fraction of the most recent simulation.")
	reg.Help(MetricRequestsRejected, "Requests rejected before planning, by reason.")
	reg.Help(MetricRequestsShed, "Requests refused by the admission layer, by route and reason.")
	reg.Help(MetricRequestsCancelled, "Admitted requests abandoned mid-work, by route and reason.")
	reg.Help(MetricRequestQueueSeconds, "Time spent waiting for admission, by route.")
	reg.Help(MetricRequestDecodeSeconds, "Time spent reading, scanning and validating the request body into a problem over its layout arrays (no file system is built), by route.")
	reg.Help(MetricResponseErrors, "Response bodies that failed to write, by route.")
	reg.Help(MetricPlanCacheHits, "Plans served from the fingerprinted plan cache.")
	reg.Help(MetricPlanCacheMisses, "Plans that ran the planner and populated the cache.")
	reg.Help(MetricPlanCacheCoalesced, "Requests that attached to an in-flight identical planner run.")
	reg.Help(MetricPlanCacheEvictions, "Plan-cache entries dropped by capacity bounds.")
	reg.Help(MetricPlanCacheEntries, "Plans and body aliases (encoded responses to repeated /v1/plan bodies) currently cached.")
	reg.Help(MetricPlanCacheBytes, "Estimated bytes of plans and body aliases currently cached.")
	reg.Help(MetricPlanCacheRemoteHits, "Plans adopted from the shared remote cache tier.")
	reg.Help(MetricPlanCacheRemoteMisses, "Remote-tier lookups that fell through to the local planner.")
	reg.Help(MetricPlanCacheRemoteErrors, "Remote-tier backend failures, treated as misses.")
	reg.Help(MetricPlanCacheRemoteSets, "Plans published to the shared remote cache tier.")

	maxInflight := opts.MaxInflight
	if maxInflight <= 0 {
		maxInflight = DefaultMaxInflight
	}
	queueWait := opts.QueueWait
	if queueWait <= 0 {
		queueWait = DefaultQueueWait
	}
	reqTimeout := opts.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = DefaultRequestTimeout
	}
	s := &Server{
		reg:        reg,
		logger:     opts.Logger,
		planAdmit:  newAdmitter(maxInflight),
		simAdmit:   newAdmitter(maxInflight),
		queueWait:  queueWait,
		reqTimeout: reqTimeout,
		limits:     opts.Limits.withDefaults(),
		decode:     decodeProblem,
	}
	if opts.RemoteTier != nil {
		s.tier = opts.RemoteTier
		s.tierNS = opts.RemoteTierNamespace
		if s.tierNS == "" {
			s.tierNS = DefaultRemoteTierNamespace
		}
		switch {
		case opts.RemoteTierTTL == 0:
			s.tierTTL = DefaultRemoteTierTTL
		case opts.RemoteTierTTL > 0:
			s.tierTTL = opts.RemoteTierTTL
		}
		// Instantiate the remote counters at zero so the families are
		// scrapeable before the first fleet interaction.
		reg.Counter(MetricPlanCacheRemoteHits)
		reg.Counter(MetricPlanCacheRemoteMisses)
		reg.Counter(MetricPlanCacheRemoteErrors)
		reg.Counter(MetricPlanCacheRemoteSets)
	}
	if opts.PlanCacheEntries >= 0 {
		entries := opts.PlanCacheEntries
		if entries == 0 {
			entries = DefaultPlanCacheEntries
		}
		mb := opts.PlanCacheMB
		if mb <= 0 {
			mb = DefaultPlanCacheMB
		}
		s.planCache = plancache.New[cachedPlan](plancache.Options{MaxEntries: entries, MaxBytes: int64(mb) << 20})
		s.keyer = plancache.NewKeyer()
		s.cacheMetrics()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.cacheMetrics()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.handler = telemetry.Middleware{Reg: reg, Logger: opts.Logger, Route: routeLabel}.Wrap(mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Drain flips both admitters into shutdown mode: queued requests shed with
// 503 immediately and new ones are refused, while admitted requests run to
// completion. Call it before http.Server.Shutdown so keep-alive connections
// cannot sneak fat requests into a draining process.
func (s *Server) Drain() {
	s.planAdmit.drain()
	s.simAdmit.drain()
}

// decodeBody runs the request decoder under its stage clock, which started
// at start (before any read-ahead of the body), and answers a rejection
// itself; ok=false means the response has already been written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, start time.Time) (req *PlanRequest, prob *core.Problem, ok bool) {
	req, prob, apiErr := s.decode(w, r, s.limits)
	s.reg.Histogram(MetricRequestDecodeSeconds, nil, telemetry.L("route", routeLabel(r))).Observe(time.Since(start).Seconds())
	if apiErr != nil {
		s.reject(w, r, apiErr)
		return nil, nil, false
	}
	return req, prob, true
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	// With the cache on, a body short enough to alias is read ahead: if its
	// bytes under this query already got a 200, that response is the answer.
	start := time.Now()
	var alias plancache.Key
	aliasable := false
	if s.planCache != nil && r.ContentLength <= min(maxAliasBody, s.limits.BodyBytes) {
		body := readBody(w, r, s.limits.BodyBytes)
		defer body.release()
		if aliasable = body.eof; aliasable {
			alias = s.aliasKey(r.URL.RawQuery, body.b)
			if cp, ok := s.planCache.Lookup(alias); ok {
				s.reg.Counter(MetricPlanCacheHits).Inc()
				s.writeBody(w, r, http.StatusOK, cp.body)
				return
			}
		}
		r.Body = body
	}
	req, prob, ok := s.decodeBody(w, r, start)
	if !ok {
		return
	}
	defer req.release()
	release, ok := s.admit(w, r, s.planAdmit, workWeight(req))
	if !ok {
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
	defer cancel()
	cp, err := s.plan(ctx, req, prob)
	if err != nil {
		req.abandon()
		s.planFailed(w, r, err)
		return
	}
	defer cp.asg.Release() // the response below is the answer's last reader
	out := cp.body
	if out == nil { // the cache and the tier are off: nothing rendered the plan yet
		if !wantsPretty(r) {
			s.streamPlan(w, r, &cp.resp, req.window())
			return
		}
		if out, err = planBody(&cp.resp); err != nil {
			s.renderFailed(w, r, err)
			return
		}
	}
	out = prettyIf(r, out)
	s.writeBody(w, r, http.StatusOK, out)
	if aliasable {
		s.planCache.Insert(alias, cachedPlan{body: out}, int64(len(out))+entryOverheadBytes)
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, prob, ok := s.decodeBody(w, r, time.Now())
	if !ok {
		return
	}
	defer req.release()
	release, ok := s.admit(w, r, s.simAdmit, workWeight(req))
	if !ok {
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
	defer cancel()
	// The engine crashes nodes and repairs chunks, so a simulation runs
	// against a file system mirroring the submitted layout over the
	// simulated cluster; installed before planning, it is the one placement
	// the plan, the engine and the replans all read. Both are the arena's,
	// rebuilt in place, so they go where it goes: back to the pool after the
	// response, or to the collector with a plan still running over them.
	sim := req.world()
	if err := sim.build(req.Nodes, prob); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	topo, fs := sim.topo, sim.fs
	prob.FS = fs
	cp, err := s.plan(ctx, req, prob)
	if err != nil {
		req.abandon()
		s.planFailed(w, r, err)
		return
	}
	defer cp.asg.Release() // the engine and the response below are the answer's last readers
	eopts := engine.Options{
		Topo: topo, FS: fs, Problem: prob, Strategy: cp.resp.Strategy,
		Failures: req.Failures, Degradations: req.Degradations,
		Replan: req.Replan, Repair: req.Repair,
		RepairDelay: req.RepairDelaySeconds, ReplanSeed: req.Seed,
	}
	engineStart := time.Now()
	res, err := engine.RunAssignmentContext(ctx, eopts, &core.Assignment{Owner: cp.resp.Owner, Lists: cp.resp.Lists})
	s.reg.Histogram(MetricSimEngineSeconds, nil).Observe(time.Since(engineStart).Seconds())
	if err != nil {
		if s.aborted(w, r, err) {
			return
		}
		s.writeError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	// Engine counters surface as gauges (last run) and counters
	// (lifetime totals) so load tests can watch throughput live.
	s.reg.Counter(MetricSimRuns).Inc()
	s.reg.Counter(MetricSimTasks).Add(float64(res.TasksRun))
	s.reg.Counter(MetricSimEvents).Add(float64(topo.Net().Events()))
	s.reg.Counter(MetricSimRateRecomputes).Add(float64(topo.Net().RateRecomputes()))
	s.reg.Counter(MetricEngineRetries).Add(float64(res.Retries))
	s.reg.Counter(MetricEngineReplans).Add(float64(res.Replans))
	s.reg.Counter(MetricEngineDeltaReplanned).Add(float64(res.DeltaReplannedTasks))
	s.reg.Counter(MetricEngineRepairedChunks).Add(float64(res.RepairedChunks))
	s.reg.Counter(MetricEngineRackLocalMB).Add(res.RackLocalMB)
	s.reg.Counter(MetricEngineCrossRackMB).Add(res.CrossRackMB)
	s.reg.Gauge(MetricSimLastMakespan).Set(res.Makespan)
	s.reg.Gauge(MetricSimLastTasksRun).Set(float64(res.TasksRun))
	s.reg.Gauge(MetricSimLastRetries).Set(float64(res.Retries))
	s.reg.Gauge(MetricSimLastLocality).Set(res.LocalFraction())
	s.writeSimulate(w, r, &SimulateResponse{Plan: cp.resp, Summary: report.Summarize(res)})
	res.Release() // the response above was the run's last reader
}

// writeSimulate answers 200 with v.
func (s *Server) writeSimulate(w http.ResponseWriter, r *http.Request, v *SimulateResponse) {
	body, err := simulateBody(r, v)
	if err != nil {
		s.renderFailed(w, r, err)
		return
	}
	s.writeBody(w, r, http.StatusOK, body)
}

// reject answers a decode failure, bucketing it in the rejection counter.
// An over-limit body additionally closes the connection: MaxBytesReader has
// poisoned the stream mid-request, so keep-alive reuse would misparse the
// unread remainder as the next request.
func (s *Server) reject(w http.ResponseWriter, r *http.Request, apiErr *apiError) {
	s.reg.Counter(MetricRequestsRejected, telemetry.L("reason", apiErr.reason)).Inc()
	if apiErr.status == http.StatusRequestEntityTooLarge {
		w.Header().Set("Connection", "close")
	}
	s.writeError(w, r, apiErr.status, apiErr.Error())
}

// workWeight estimates a request's planner + simulation work in admission
// units: one per task plus one per input (planner cost scales with locality
// edges, simulation cost with read flows — both proportional to inputs).
func workWeight(req *PlanRequest) int64 {
	return max(req.weight, 1)
}

// admit passes the request through the route's admission gate, recording
// queue wait and shed/cancel outcomes. ok=false means the response has
// already been written; otherwise release must be called when done.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, a *admitter, weight int64) (release func(), ok bool) {
	route := telemetry.L("route", routeLabel(r))
	weight = a.clamp(weight)
	start := time.Now()
	err := a.acquire(r.Context(), weight, s.queueWait)
	s.reg.Histogram(MetricRequestQueueSeconds, nil, route).Observe(time.Since(start).Seconds())
	switch {
	case err == nil:
		return func() { a.release(weight) }, true
	case errors.Is(err, errShed):
		s.reg.Counter(MetricRequestsShed, route, telemetry.L("reason", "queue_timeout")).Inc()
		// Retry-After: the queue-wait bound is the natural horizon after
		// which a retry has a fresh chance at the queue.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.queueWait)))
		s.writeError(w, r, http.StatusTooManyRequests, "server saturated; retry later")
	case errors.Is(err, errDraining):
		s.reg.Counter(MetricRequestsShed, route, telemetry.L("reason", "draining")).Inc()
		s.writeError(w, r, http.StatusServiceUnavailable, "server draining")
	default: // client went away while queued
		s.reg.Counter(MetricRequestsCancelled, route, telemetry.L("reason", "disconnect")).Inc()
		w.WriteHeader(statusClientClosedRequest)
	}
	return nil, false
}

// retryAfterSeconds renders a wait bound as a whole-second Retry-After
// value, never below 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// aborted maps a context error from the planner or the engine to the
// cancelled counter and the right status, reporting whether it handled err.
func (s *Server) aborted(w http.ResponseWriter, r *http.Request, err error) bool {
	route := telemetry.L("route", routeLabel(r))
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.reg.Counter(MetricRequestsCancelled, route, telemetry.L("reason", "deadline")).Inc()
		s.writeError(w, r, http.StatusServiceUnavailable, "request deadline exceeded")
		return true
	case errors.Is(err, context.Canceled):
		s.reg.Counter(MetricRequestsCancelled, route, telemetry.L("reason", "disconnect")).Inc()
		w.WriteHeader(statusClientClosedRequest) // client is gone; best effort
		return true
	}
	return false
}

// planFailed answers a planner error, distinguishing cancellation from
// genuine failures.
func (s *Server) planFailed(w http.ResponseWriter, r *http.Request, err error) {
	if s.aborted(w, r, err) {
		return
	}
	var apiErr *apiError
	if errors.As(err, &apiErr) {
		s.writeError(w, r, apiErr.status, apiErr.Error())
		return
	}
	s.writeError(w, r, http.StatusInternalServerError, err.Error())
}

// writeError answers status with the JSON error envelope naming msg: the
// bytes json.Encoder writes for errorBody{msg}, indented under ?pretty=1.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	b, _ := json.Marshal(errorBody{Error: msg}) // a string always marshals
	s.writeBody(w, r, status, prettyIf(r, append(b, '\n')))
}

// writeBody answers status with an already-encoded JSON body. A failed
// write — the client hanging up mid-body — is logged and counted instead of
// silently letting the telemetry middleware record a clean response.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.writeFailed(w, r, status, err)
	}
}

// writeFailed counts and logs a response that could not be encoded or
// written, under the request ID the telemetry middleware put on w.
func (s *Server) writeFailed(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.reg.Counter(MetricResponseErrors, telemetry.L("route", routeLabel(r))).Inc()
	if s.logger != nil {
		s.logger.Warn("response write failed",
			slog.String("id", w.Header().Get(telemetry.RequestIDHeader)),
			slog.String("route", routeLabel(r)),
			slog.Int("status", status),
			slog.Any("error", err))
	}
}

// pickAssigner resolves the request's strategy to a planner. The resolved
// name (not the raw strategy string) keys the plan cache, so "" and
// "opass" share entries.
func pickAssigner(req *PlanRequest, prob *core.Problem) (core.Assigner, *apiError) {
	strategy := req.Strategy
	if strategy == "" {
		strategy = "opass"
	}
	as, err := core.AssignerFor(strategy, req.Seed, prob.MultiInput())
	if err != nil {
		return nil, badRequest("invalid", "%v", err)
	}
	return as, nil
}

// planFingerprint derives the shared tier's key: a SHA-256 over the
// canonical problem encoding (proc→node map, task inputs, per-chunk replica
// lists, multi-rack map) plus the resolved strategy and its seed. Everything a
// planner consults is covered, so equal keys imply byte-identical plans. The
// L1 keys the same sections with the server's Keyer instead.
func planFingerprint(canon []byte, strategy string, seed []byte) plancache.Key {
	return plancache.KeyOf(canon, []byte(strategy), seed)
}

// aliasKey is the plan cache's key for body posted under query.
func (s *Server) aliasKey(query string, body []byte) plancache.Key {
	return s.keyer.KeyOf(plancache.DomainAlias, body, []byte(query))
}

// planKey is the plan cache's key for the sections planFingerprint hashes
// for the shared tier: canon planned by strategy under seed.
func (s *Server) planKey(canon []byte, strategy string, seed []byte) plancache.Key {
	return s.keyer.KeyOf(plancache.DomainFingerprint, canon, []byte(strategy), seed)
}

// entryOverheadBytes is what the cache's byte bound charges each entry
// beyond its payload: the envelope, the LRU element, the map slot and key.
const entryOverheadBytes = 256

// planSizeBytes estimates a plan entry's memory footprint for the cache's
// byte bound: owner and list payloads, list headers, the body and the fixed
// envelope. A compact query's alias shares the body and charges it again, so
// the bound over-estimates rather than under.
func planSizeBytes(cp *cachedPlan) int64 {
	n := int64(len(cp.resp.Owner))*8 + int64(len(cp.body))
	for _, l := range cp.resp.Lists {
		n += 24 + int64(len(l))*8
	}
	return n + entryOverheadBytes
}

// tierFetch asks the shared tier for an already-computed plan of strategy.
// Every failure mode — backend error, undecodable bytes, a plan of another
// strategy or one that does not validate against the problem — degrades to a
// miss. The body is rendered afresh from the decoded plan, so no byte the
// tier sent reaches a response unchecked.
func (s *Server) tierFetch(ctx context.Context, prob *core.Problem, strategy, key string) (cachedPlan, bool) {
	data, ok, err := s.tier.Get(ctx, key)
	if err != nil {
		s.reg.Counter(MetricPlanCacheRemoteErrors).Inc()
		return cachedPlan{}, false
	}
	if !ok {
		s.reg.Counter(MetricPlanCacheRemoteMisses).Inc()
		return cachedPlan{}, false
	}
	var cp cachedPlan
	if err := json.Unmarshal(data, &cp.resp); err != nil || cp.resp.Strategy != strategy {
		s.reg.Counter(MetricPlanCacheRemoteErrors).Inc()
		return cachedPlan{}, false
	}
	if err := (&core.Assignment{Owner: cp.resp.Owner, Lists: cp.resp.Lists}).Validate(prob); err != nil {
		s.reg.Counter(MetricPlanCacheRemoteErrors).Inc()
		return cachedPlan{}, false
	}
	if cp.body, err = planBody(&cp.resp); err != nil {
		s.reg.Counter(MetricPlanCacheRemoteErrors).Inc()
		return cachedPlan{}, false
	}
	s.reg.Counter(MetricPlanCacheRemoteHits).Inc()
	return cp, true
}

// tierPublish offers a freshly computed plan's body to the shared tier;
// failures are counted and otherwise ignored (the local response is already
// in hand).
func (s *Server) tierPublish(ctx context.Context, key string, body []byte) {
	if err := s.tier.Set(ctx, key, body, s.tierTTL); err != nil {
		s.reg.Counter(MetricPlanCacheRemoteErrors).Inc()
		return
	}
	s.reg.Counter(MetricPlanCacheRemoteSets).Inc()
}

// plan answers the request from the fingerprinted plan cache or the shared
// tier when it can, running the planner when it cannot — at most once
// across concurrent identical requests when the cache is on. With either on,
// the plan comes with its compact /v1/plan body; with both off, body is nil.
// Unless the cache is on, a plan the planner made borrows its answer
// (cachedPlan.asg), which the caller releases.
func (s *Server) plan(ctx context.Context, req *PlanRequest, prob *core.Problem) (cachedPlan, error) {
	assigner, apiErr := pickAssigner(req, prob)
	if apiErr != nil {
		return cachedPlan{}, apiErr
	}
	if s.planCache == nil && s.tier == nil {
		return s.computePlan(ctx, assigner, prob)
	}
	strategy := assigner.Name()
	canon := req.canonical(prob)
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(req.Seed))
	// compute is what a cache miss costs. The shared tier is consulted
	// inside the flight: when another replica already planned this
	// fingerprint, its plan is adopted and the local planner never runs.
	compute := func(cctx context.Context) (cachedPlan, int64, error) {
		var tierKey string
		if s.tier != nil {
			tierKey = plancache.TierKey(s.tierNS, planFingerprint(canon, strategy, seed[:]))
			if cp, ok := s.tierFetch(cctx, prob, strategy, tierKey); ok {
				return cp, planSizeBytes(&cp), nil
			}
		}
		cp, err := s.computePlan(cctx, assigner, prob)
		if err != nil {
			return cachedPlan{}, 0, err
		}
		if cp.body, err = planBody(&cp.resp); err != nil {
			cp.asg.Release()
			return cachedPlan{}, 0, err
		}
		if s.tier != nil {
			s.tierPublish(cctx, tierKey, cp.body)
		}
		if s.planCache != nil { // the entry outlives the request: give it storage of its own
			cp.resp = ownedResponse(cp.resp)
			cp.asg.Release()
			cp.asg = nil
		}
		return cp, planSizeBytes(&cp), nil
	}
	if s.planCache == nil { // no L1: nothing to coalesce on or count
		cp, _, err := compute(ctx)
		return cp, err
	}
	cp, outcome, err := s.planCache.Do(ctx, s.planKey(canon, strategy, seed[:]), compute)
	switch outcome {
	case plancache.Hit:
		s.reg.Counter(MetricPlanCacheHits).Inc()
	case plancache.Coalesced:
		s.reg.Counter(MetricPlanCacheCoalesced).Inc()
	default:
		s.reg.Counter(MetricPlanCacheMisses).Inc()
	}
	return cp, err
}

// cacheMetrics copies the plan cache's own totals into its families: the
// entry and byte gauges, and the evictions counter advanced to the cache's
// lifetime count. It runs at start, so the families exist at zero, and at
// the top of every /metrics scrape.
func (s *Server) cacheMetrics() {
	if s.planCache == nil {
		return
	}
	s.scrapeMu.Lock()
	defer s.scrapeMu.Unlock()
	stats := s.planCache.Stats()
	s.reg.Gauge(MetricPlanCacheEntries).Set(float64(stats.Entries))
	s.reg.Gauge(MetricPlanCacheBytes).Set(float64(stats.Bytes))
	evictions := s.reg.Counter(MetricPlanCacheEvictions)
	evictions.Add(float64(stats.Evictions) - evictions.Value())
}

// computePlan runs the resolved strategy over the decoded problem under
// ctx, recording per-strategy planner latency and achieved locality. The
// response borrows the planner's answer, which the plan carries as asg.
func (s *Server) computePlan(ctx context.Context, assigner core.Assigner, prob *core.Problem) (cachedPlan, error) {
	if s.plannerRan != nil {
		s.plannerRan()
	}
	start := time.Now()
	a, err := core.AssignContext(ctx, assigner, prob)
	elapsed := time.Since(start)
	if err != nil {
		return cachedPlan{}, err
	}
	strategy := telemetry.L("strategy", assigner.Name())
	s.reg.Histogram(MetricPlannerLatency, nil, strategy).Observe(elapsed.Seconds())
	s.reg.Histogram(MetricPlanLocality, telemetry.FractionBuckets, strategy).Observe(a.LocalityFraction())
	s.reg.Counter(MetricPlans, strategy).Inc()
	return cachedPlan{asg: a, resp: PlanResponse{
		Strategy:         assigner.Name(),
		Owner:            a.Owner,
		Lists:            a.Lists,
		LocalityFraction: a.LocalityFraction(),
		PlannerMillis:    float64(elapsed.Microseconds()) / 1000,
	}}, nil
}

// ownedResponse returns resp with Owner and Lists copied to storage of their
// own: an owner vector and one backing array for every list. A nil list
// stays nil, so the plan renders the same bytes.
func ownedResponse(resp PlanResponse) PlanResponse {
	resp.Owner = slices.Clone(resp.Owner)
	flat := make([]int, 0, len(resp.Owner))
	lists := make([][]int, len(resp.Lists))
	for p, l := range resp.Lists {
		if l != nil {
			flat = append(flat, l...)
			lists[p] = flat[len(flat)-len(l) : len(flat) : len(flat)]
		}
	}
	resp.Lists = lists
	return resp
}
