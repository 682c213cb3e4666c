// Package plancache implements a content-addressed result cache with
// request coalescing, built for the planning service's hot path: Opass
// plans are pure functions of (topology, replica placement, tasks,
// strategy), so a request whose canonical fingerprint matches a previous
// one can be answered without re-running the matcher — the request-layer
// analogue of OS4M's reuse of global scheduling decisions across
// operations.
//
// The cache needs no invalidation: a fingerprint
// (core.Problem.AppendCanonical) covers the replica rows of exactly the
// chunks a problem reads, so a plan computed against one placement can never
// be served for another — the delay-scheduling lesson that cached placement
// must stay fresh — while changes to chunks a problem does not read leave its
// fingerprint, and thus its cached plan, hot.
//
// Three mechanisms compose:
//
//   - Content addressing: Key is a digest of length-framed sections, so
//     distinct problems cannot collide by field aliasing and equality of
//     keys is equality of problems. Keys that are shared (the tier's) are
//     SHA-256 (KeyOf); keys that never leave the process are a keyed GMAC
//     (Keyer), several times faster.
//   - Bounded retention: an LRU doubly-linked list enforces entry and
//     byte bounds. Entries have no age limit: a key covers every byte its
//     value was computed from, so an entry cannot go stale, and expiring it
//     would only recompute the same bytes.
//   - Coalescing (singleflight): concurrent Do calls with the same key
//     share one compute. The shared compute's context is detached from
//     any single caller's cancellation and is cancelled only when every
//     waiter has given up — one impatient client cannot abort work others
//     are still waiting for, but work nobody wants stops promptly. Lookup
//     and Insert bypass it, for values a caller derives itself (the
//     service's body aliases).
package plancache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// Key is a content-addressed cache key.
type Key [sha256.Size]byte

// KeyOf hashes the given byte sections into a Key. Each section is
// length-prefixed before hashing, so section boundaries cannot alias:
// KeyOf("ab","c") differs from KeyOf("a","bc").
func KeyOf(sections ...[]byte) Key {
	h := sha256.New()
	var n [8]byte
	for _, s := range sections {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write(s)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Outcome reports how a Do call was satisfied.
type Outcome int

const (
	// Miss: this call ran the compute function (it was the flight leader).
	Miss Outcome = iota
	// Hit: the value was served from the cache.
	Hit
	// Coalesced: the call attached to another caller's in-flight compute.
	Coalesced
)

// String implements fmt.Stringer for log and metric labels.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "unknown"
	}
}

// Options bounds a Cache.
type Options struct {
	// MaxEntries bounds the entry count; <= 0 means no entry bound.
	MaxEntries int
	// MaxBytes bounds the sum of caller-reported value sizes; <= 0 means
	// no byte bound. A single value larger than the bound is evicted on
	// arrival (it can never fit) and displaces nothing.
	MaxBytes int64
}

type entry[V any] struct {
	key  Key
	val  V
	size int64
	elem *list.Element
}

// call is one in-flight shared compute.
type call[V any] struct {
	done    chan struct{} // closed after val/err are set
	val     V
	size    int64
	err     error
	waiters int                // callers currently blocked on done
	cancel  context.CancelFunc // cancels the compute's context
}

// Cache is a bounded, coalescing, content-addressed cache. All methods are
// safe for concurrent use.
type Cache[V any] struct {
	opts Options

	mu        sync.Mutex
	entries   map[Key]*entry[V]
	lru       *list.List // front = most recently used
	bytes     int64
	calls     map[Key]*call[V]
	evictions uint64
}

// New creates a cache with the given bounds.
func New[V any](opts Options) *Cache[V] {
	return &Cache[V]{
		opts:    opts,
		entries: make(map[Key]*entry[V]),
		lru:     list.New(),
		calls:   make(map[Key]*call[V]),
	}
}

// Stats is a point-in-time summary of the cache.
type Stats struct {
	Entries   int
	Bytes     int64
	Evictions uint64 // lifetime total
}

// Stats reports the current entry/byte totals and lifetime evictions.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Entries: c.lru.Len(), Bytes: c.bytes, Evictions: c.evictions}
}

// Do returns the value for key, computing it at most once across
// concurrent callers. On a hit the cached value is returned immediately.
// Otherwise the first caller becomes the flight leader and runs compute in
// a separate goroutine; callers arriving while it runs coalesce onto it.
//
// compute receives a context that is NOT cancelled when an individual
// waiter's ctx is — only when every waiter has abandoned the flight. It
// must return the value and a non-negative size estimate in bytes (used
// for the MaxBytes bound). Errors are returned to every waiter and never
// cached.
//
// A caller whose ctx is done returns ctx.Err() immediately; the shared
// compute keeps running for the remaining waiters and still populates the
// cache. The reported Outcome tells whether this caller led the flight
// (Miss), attached to one (Coalesced), or was served from the cache (Hit).
func (c *Cache[V]) Do(ctx context.Context, key Key, compute func(context.Context) (V, int64, error)) (V, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		v := e.val
		c.mu.Unlock()
		return v, Hit, nil
	}
	if cl, ok := c.calls[key]; ok {
		cl.waiters++
		c.mu.Unlock()
		return c.wait(ctx, cl, Coalesced)
	}
	// Flight leader: run the compute detached from this caller's
	// cancellation, under a cancel hook the last departing waiter pulls.
	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	cl := &call[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.calls[key] = cl
	c.mu.Unlock()
	go c.run(key, cl, cctx, cancel, compute)
	return c.wait(ctx, cl, Miss)
}

// Lookup returns the value cached under key and marks it most recently used.
// It never starts or joins a flight: a missing key is a plain miss, whatever
// is computing it.
func (c *Cache[V]) Lookup(key Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Insert caches v under key with the given size, under the same bounds as Do.
// A key already present keeps its value and size: the store has no overwrite.
func (c *Cache[V]) Insert(key Key, v V, size int64) {
	c.mu.Lock()
	c.storeLocked(key, v, size)
	c.mu.Unlock()
}

// run executes the shared compute and publishes its result.
func (c *Cache[V]) run(key Key, cl *call[V], cctx context.Context, cancel context.CancelFunc, compute func(context.Context) (V, int64, error)) {
	v, size, err := compute(cctx)
	cancel() // release the context's resources; waiters are signalled via done
	c.mu.Lock()
	cl.val, cl.size, cl.err = v, size, err
	delete(c.calls, key)
	if err == nil {
		c.storeLocked(key, v, size)
	}
	c.mu.Unlock()
	// close(done) happens after the fields above are set; waiters that see
	// the close observe them without taking the lock.
	close(cl.done)
}

// wait blocks until the shared compute finishes or ctx is done. A departing
// waiter deregisters; the last one out cancels the compute, since nobody
// will consume its result.
func (c *Cache[V]) wait(ctx context.Context, cl *call[V], oc Outcome) (V, Outcome, error) {
	select {
	case <-cl.done:
		return cl.val, oc, cl.err
	case <-ctx.Done():
		c.mu.Lock()
		cl.waiters--
		abandon := cl.waiters == 0
		c.mu.Unlock()
		if abandon {
			cl.cancel()
		}
		var zero V
		return zero, oc, ctx.Err()
	}
}

// storeLocked inserts a value and enforces the bounds, counting each
// eviction. A key already present (an Insert that landed while the key's
// flight ran) is left as it is, and a value over MaxBytes is counted as
// evicted without displacing the entries that do fit.
func (c *Cache[V]) storeLocked(key Key, v V, size int64) {
	if _, ok := c.entries[key]; ok {
		return
	}
	size = max(size, 0)
	if c.opts.MaxBytes > 0 && size > c.opts.MaxBytes {
		c.evictions++
		return
	}
	e := &entry[V]{key: key, val: v, size: size}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += size
	for c.overBoundLocked() {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back.Value.(*entry[V]))
		c.evictions++
	}
}

func (c *Cache[V]) overBoundLocked() bool {
	if c.opts.MaxEntries > 0 && c.lru.Len() > c.opts.MaxEntries {
		return true
	}
	if c.opts.MaxBytes > 0 && c.bytes > c.opts.MaxBytes {
		return true
	}
	return false
}

func (c *Cache[V]) removeLocked(e *entry[V]) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.bytes -= e.size
}
