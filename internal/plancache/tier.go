package plancache

import (
	"context"
	"fmt"
	"time"
)

// This file defines the shared cache tier: a byte-oriented backend behind
// the per-process Cache, letting N opassd replicas dedupe planner work
// fleet-wide. The in-process Cache stays the L1 — typed values, coalescing —
// while a Tier is the L2 consulted inside the
// singleflight compute: before running the planner the flight leader asks
// the tier for the fingerprint's serialized plan, and after a genuine
// compute it publishes the result for every other replica.
//
// Correctness is inherited from content addressing. Tier keys embed the
// same canonical-problem fingerprint the L1 uses — which covers every replica
// row the problem reads — plus the caller's namespace (a wire-format
// version), so replicas answering from the shared tier agree on exactly the
// layout the plan was computed against. Stale entries are never wrong, merely
// unreachable, so the tier needs no invalidation protocol: TTLs and backend
// LRU pressure collect the garbage, and the TTL also bounds how long plans
// from an older binary are served fleet-wide during a rolling deploy.

// Tier is a shared byte-valued cache backend. Implementations must be safe
// for concurrent use. Errors are advisory: callers treat a failing tier as
// a miss and fall through to computing locally.
type Tier interface {
	// Get fetches the value stored under key. ok is false on a clean miss;
	// err reports backend failures (which callers should treat as misses).
	Get(ctx context.Context, key string) (value []byte, ok bool, err error)
	// Set stores value under key. ttl bounds the entry's remote lifetime;
	// <= 0 lets the backend keep it until evicted by its own pressure.
	Set(ctx context.Context, key string, value []byte, ttl time.Duration) error
}

// TierKey renders a content-addressed Key under a namespace as a key every
// Tier backend accepts (hex keeps it within memcached's 250-byte printable
// key rules for any namespace up to ~180 bytes). Namespaces version the
// keyspace: the service embeds its wire-format version (see httpapi's
// DefaultRemoteTierNamespace).
func TierKey(namespace string, k Key) string {
	return fmt.Sprintf("%s:%x", namespace, k[:])
}
