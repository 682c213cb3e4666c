// Command opassd serves the Opass planners over HTTP. An application posts
// its block layout (from its namenode) and task list; opassd returns the
// locality-and-balance-optimized task→process assignment, or a full
// simulated execution forecast.
//
// Usage:
//
//	opassd [-addr :8700] [-log-format text|json] [-log-level debug|info|warn|error]
//	       [-quiet] [-drain-timeout 15s] [-max-inflight N] [-queue-wait 2s]
//	       [-request-timeout 55s] [-plan-cache-entries 4096] [-plan-cache-mb 64]
//	       [-plan-cache-remote host:port] [-plan-cache-remote-timeout 250ms]
//	       [-plan-cache-remote-namespace opass2] [-plan-cache-remote-ttl 10m]
//	       [-max-body-mb 1024] [-max-nodes N] [-max-procs N] [-max-tasks N]
//	       [-max-inputs-per-task N]
//
// Endpoints (see internal/httpapi):
//
//	GET  /healthz
//	GET  /metrics      Prometheus-style text exposition
//	POST /v1/plan
//	POST /v1/simulate
//
// Every request is stamped with an X-Request-Id and logged as one
// structured line. The expensive routes sit behind bounded admission:
// -max-inflight caps the work units (tasks + inputs) admitted per route at
// once, and a request that cannot be admitted within -queue-wait is shed
// with 429 + Retry-After. Admitted requests run under the -request-timeout
// deadline; expiry cancels the planner and the simulation cooperatively and
// answers 503.
//
// Identical plan requests are answered from a fingerprinted plan cache
// (concurrent identical requests share one planner run): -plan-cache-entries
// and -plan-cache-mb bound it, and -plan-cache-entries=0 disables caching.
// Entries have no age limit: the fingerprint covers the whole submitted
// layout, so a cached plan cannot go stale. Cache effectiveness is visible at
// /metrics as opass_plan_cache_*.
//
// -plan-cache-remote points a fleet of opassd replicas at one shared
// memcached-protocol cache: a plan computed by any replica is published
// under its content-addressed fingerprint and adopted by the others, so a
// repeated request costs the fleet exactly one planner run. The backend is
// best-effort — timeouts and errors fall back to the local planner and are
// counted as opass_plan_cache_remote_errors_total. -plan-cache-remote-ttl
// bounds entry age on the backend (0 means no expiry), which limits how long
// plans from an older binary are served fleet-wide during a rolling deploy,
// and -plan-cache-remote-namespace isolates fleets sharing one backend.
//
// Request admission limits are tunable: -max-body-mb bounds the request
// body, -max-nodes/-max-procs/-max-tasks/-max-inputs-per-task bound the
// decoded problem. Oversized requests are rejected early and cheaply — the
// streaming decoder enforces the caps incrementally, so a rejected request
// costs O(1) memory no matter how large its body claims to be.
//
// On SIGINT/SIGTERM the server drains the admission queues
// (queued requests get 503 immediately), stops accepting new connections,
// and waits for in-flight requests for up to -drain-timeout before exiting
// — deploys no longer drop work on the floor.
//
// Example:
//
//	opassd &
//	curl -s localhost:8700/v1/plan -d '{
//	  "nodes": 4,
//	  "tasks": [
//	    {"inputs": [{"size_mb": 64, "replicas": [0, 2]}]},
//	    {"inputs": [{"size_mb": 64, "replicas": [1, 3]}]}
//	  ]
//	}'
//	curl -s localhost:8700/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"opass/internal/httpapi"
	"opass/internal/plancache"
	"opass/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8700", "listen address")
	logFormat := flag.String("log-format", "text", "request log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	quiet := flag.Bool("quiet", false, "disable per-request logging")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long to wait for in-flight requests on shutdown")
	maxInflight := flag.Int64("max-inflight", httpapi.DefaultMaxInflight,
		"admission capacity per route, in work units (tasks + inputs of concurrent requests)")
	queueWait := flag.Duration("queue-wait", httpapi.DefaultQueueWait,
		"how long a request may wait for admission before being shed with 429")
	requestTimeout := flag.Duration("request-timeout", httpapi.DefaultRequestTimeout,
		"per-request processing deadline; expiry cancels the work and answers 503")
	planCacheEntries := flag.Int("plan-cache-entries", httpapi.DefaultPlanCacheEntries,
		"maximum cached plans; 0 disables the plan cache entirely")
	planCacheMB := flag.Int("plan-cache-mb", httpapi.DefaultPlanCacheMB,
		"maximum memory the plan cache may hold, in MiB")
	remoteAddr := flag.String("plan-cache-remote", "",
		"host:port of a shared memcached-protocol plan cache; empty disables the shared tier")
	remoteTimeout := flag.Duration("plan-cache-remote-timeout", plancache.DefaultRemoteTimeout,
		"per-operation deadline for the shared plan cache; expiry falls back to the local planner")
	remoteNamespace := flag.String("plan-cache-remote-namespace", httpapi.DefaultRemoteTierNamespace,
		"key namespace on the shared plan cache; isolates fleets sharing one backend")
	remoteTTL := flag.Duration("plan-cache-remote-ttl", httpapi.DefaultRemoteTierTTL,
		"maximum age of a plan on the shared cache; 0 means entries never expire")
	maxBodyMB := flag.Int64("max-body-mb", httpapi.DefaultMaxBodyBytes>>20,
		"maximum request body size, in MiB")
	maxNodes := flag.Int("max-nodes", httpapi.DefaultMaxNodes, "maximum cluster nodes per request")
	maxProcs := flag.Int("max-procs", httpapi.DefaultMaxProcs, "maximum processes per request")
	maxTasks := flag.Int("max-tasks", httpapi.DefaultMaxTasks, "maximum tasks per request")
	maxInputs := flag.Int("max-inputs-per-task", httpapi.DefaultMaxInputsPerTask,
		"maximum inputs a single task may list")
	flag.Parse()

	// Map the CLI's "0 disables / 0 never expires" convention onto the
	// ServerOptions convention, where 0 means "use the default" and negative
	// values carry the disable/never-expire meanings.
	entriesOpt := *planCacheEntries
	if entriesOpt <= 0 {
		entriesOpt = -1
	}
	remoteTTLOpt := *remoteTTL
	if remoteTTLOpt <= 0 {
		remoteTTLOpt = -1
	}

	var tier plancache.Tier
	var remote *plancache.Remote
	if *remoteAddr != "" {
		remote = plancache.NewRemote(*remoteAddr, plancache.RemoteOptions{Timeout: *remoteTimeout})
		defer remote.Close()
		tier = remote
	}

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "opassd:", err)
		os.Exit(2)
	}
	reqLogger := logger
	if *quiet {
		reqLogger = nil
	}

	api := httpapi.NewServer(httpapi.ServerOptions{
		Registry:            telemetry.NewRegistry(),
		Logger:              reqLogger,
		MaxInflight:         *maxInflight,
		QueueWait:           *queueWait,
		RequestTimeout:      *requestTimeout,
		PlanCacheEntries:    entriesOpt,
		PlanCacheMB:         *planCacheMB,
		RemoteTier:          tier,
		RemoteTierNamespace: *remoteNamespace,
		RemoteTierTTL:       remoteTTLOpt,
		Limits: httpapi.RequestLimits{
			BodyBytes:     *maxBodyMB << 20,
			Nodes:         *maxNodes,
			Procs:         *maxProcs,
			Tasks:         *maxTasks,
			InputsPerTask: *maxInputs,
		},
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("opassd listening", slog.String("addr", *addr))

	select {
	case err := <-errc:
		// Listener failed before any signal (port in use, etc.).
		logger.Error("serve failed", slog.Any("error", err))
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately

	logger.Info("shutting down, draining in-flight requests",
		slog.Duration("drain_timeout", *drainTimeout))
	// Shed the admission queues first: requests still waiting for a slot get
	// an immediate 503 instead of being strung along into the drain window.
	api.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("drain timeout exceeded, closing remaining connections",
			slog.Any("error", err))
		srv.Close()
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("server exited abnormally", slog.Any("error", err))
		os.Exit(1)
	}
	logger.Info("opassd stopped cleanly")
}

// buildLogger constructs the process logger from the -log-format and
// -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q", format)
	}
}
