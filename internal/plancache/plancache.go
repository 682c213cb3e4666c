// Package plancache implements a content-addressed result cache with
// request coalescing, built for the planning service's hot path: Opass
// plans are pure functions of (topology, replica placement, tasks,
// strategy), so a request whose canonical fingerprint matches a previous
// one can be answered without re-running the matcher — the request-layer
// analogue of OS4M's reuse of global scheduling decisions across
// operations.
//
// The cache is safe only because invalidation is tied to file-system
// mutations: fingerprints embed the per-chunk placement epochs of exactly
// the chunks a problem reads (dfs.FileSystem.ChunkEpoch via
// core.Problem.AppendCanonical), so a plan computed against stale placement
// can never be served for a mutated one — the delay-scheduling lesson that
// cached placement must stay fresh — while mutations to files a problem
// does not read leave its fingerprint, and thus its cached plan, hot.
//
// Three mechanisms compose:
//
//   - Content addressing: Key is a SHA-256 over length-framed sections
//     (KeyOf), so distinct problems cannot collide by field aliasing and
//     equality of keys is equality of problems.
//   - Bounded retention: an LRU doubly-linked list enforces entry and
//     byte bounds; entries also carry a TTL so a plan cannot outlive the
//     operator's freshness budget even if it stays hot.
//   - Coalescing (singleflight): concurrent Do calls with the same key
//     share one compute. The shared compute's context is detached from
//     any single caller's cancellation and is cancelled only when every
//     waiter has given up — one impatient client cannot abort work others
//     are still waiting for, but work nobody wants stops promptly.
package plancache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"time"
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
	// no byte bound. A single value larger than the bound is evicted
	// immediately after insertion (it can never fit).
	MaxBytes int64
	// TTL bounds entry age from insertion; <= 0 means entries never
	// expire.
	TTL time.Duration
	// Now overrides the clock for tests; nil means time.Now.
	Now func() time.Time
	// OnEvict, if set, is called (outside the cache lock) after evictions
	// with the number of entries evicted and the cache's new entry/byte
	// totals. TTL expiries count as evictions.
	OnEvict func(evicted int, entries int, bytes int64)
}

type entry[V any] struct {
	key     Key
	val     V
	size    int64
	expires time.Time // zero means never
	elem    *list.Element
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

	// notifyMu serializes OnEvict callbacks. Totals are re-read under mu
	// inside the critical section, so callbacks observe entry/byte totals in
	// a consistent, time-monotonic order — concurrent evictors can no longer
	// deliver stale snapshots out of order and wedge a gauge on an old value.
	notifyMu sync.Mutex
}

// New creates a cache with the given bounds.
func New[V any](opts Options) *Cache[V] {
	if opts.Now == nil {
		opts.Now = time.Now
	}
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
	Evictions uint64 // lifetime total, including TTL expiries
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
	now := c.opts.Now()
	expired := 0
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.expires.IsZero() || now.Before(e.expires) {
			c.lru.MoveToFront(e.elem)
			v := e.val
			c.mu.Unlock()
			return v, Hit, nil
		}
		c.removeLocked(e)
		c.evictions++
		expired = 1
	}
	if cl, ok := c.calls[key]; ok {
		cl.waiters++
		c.mu.Unlock()
		c.notifyEvict(expired)
		return c.wait(ctx, cl, Coalesced)
	}
	// Flight leader: run the compute detached from this caller's
	// cancellation, under a cancel hook the last departing waiter pulls.
	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	cl := &call[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.calls[key] = cl
	c.mu.Unlock()
	c.notifyEvict(expired)
	go c.run(key, cl, cctx, cancel, compute)
	return c.wait(ctx, cl, Miss)
}

// run executes the shared compute and publishes its result.
func (c *Cache[V]) run(key Key, cl *call[V], cctx context.Context, cancel context.CancelFunc, compute func(context.Context) (V, int64, error)) {
	v, size, err := compute(cctx)
	cancel() // release the context's resources; waiters are signalled via done
	c.mu.Lock()
	cl.val, cl.size, cl.err = v, size, err
	delete(c.calls, key)
	evicted := 0
	if err == nil {
		evicted = c.storeLocked(key, v, size)
	}
	c.mu.Unlock()
	// close(done) happens after the fields above are set; waiters that see
	// the close observe them without taking the lock.
	close(cl.done)
	c.notifyEvict(evicted)
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

// storeLocked inserts (or refreshes) an entry and enforces the bounds,
// returning how many entries were evicted. On a refresh the old entry's
// bytes are released before the new size is charged (the delta update), so
// the byte accounting cannot drift when a key is overwritten.
func (c *Cache[V]) storeLocked(key Key, v V, size int64) int {
	if size < 0 {
		size = 0
	}
	var expires time.Time
	if c.opts.TTL > 0 {
		expires = c.opts.Now().Add(c.opts.TTL)
	}
	if e, ok := c.entries[key]; ok {
		c.bytes += size - e.size
		e.val, e.size, e.expires = v, size, expires
		c.lru.MoveToFront(e.elem)
	} else {
		e := &entry[V]{key: key, val: v, size: size, expires: expires}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		c.bytes += size
	}
	evicted := 0
	for c.overBoundLocked() {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back.Value.(*entry[V]))
		evicted++
	}
	c.evictions += uint64(evicted)
	return evicted
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

// notifyEvict delivers an OnEvict callback for evicted entries. The caller
// must NOT hold c.mu. Callbacks are serialized under notifyMu with totals
// read fresh inside the critical section: two concurrent evictors therefore
// deliver totals in a consistent order, and a gauge mirroring them always
// converges to the cache's true state (the old code captured snapshots
// before racing to the callback, so a stale pair could land last).
func (c *Cache[V]) notifyEvict(evicted int) {
	if c.opts.OnEvict == nil || evicted == 0 {
		return
	}
	c.notifyMu.Lock()
	defer c.notifyMu.Unlock()
	c.mu.Lock()
	entries, bytes := c.lru.Len(), c.bytes
	c.mu.Unlock()
	c.opts.OnEvict(evicted, entries, bytes)
}
