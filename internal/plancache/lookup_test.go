package plancache

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// flights reports how many computes are in flight.
func flights(c *Cache[int]) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.calls)
}

// TestLookupStartsNoFlight: a Lookup on a missing key is a plain miss. It
// starts no compute, and while another key's (or its own key's) Do is
// computing it neither waits for that flight nor joins it.
func TestLookupStartsNoFlight(t *testing.T) {
	c := New[int](Options{MaxEntries: 8})
	if _, ok := c.Lookup(keyOf("k")); ok {
		t.Fatal("hit on an empty cache")
	}
	if n := flights(c); n != 0 {
		t.Fatalf("a Lookup started %d flights", n)
	}
	release := make(chan struct{})
	done := make(chan Outcome)
	go func() {
		_, oc, _ := c.Do(context.Background(), keyOf("k"), func(context.Context) (int, int64, error) {
			<-release
			return 42, 1, nil
		})
		done <- oc
	}()
	waitFor(t, "the flight to start", func() bool { return waiters(c, keyOf("k")) == 1 })
	if _, ok := c.Lookup(keyOf("k")); ok {
		t.Fatal("Lookup returned a value whose compute has not finished")
	}
	if w := waiters(c, keyOf("k")); w != 1 {
		t.Fatalf("Lookup joined the flight: %d waiters", w)
	}
	close(release)
	if oc := <-done; oc != Miss {
		t.Fatalf("Do outcome %v, want Miss", oc)
	}
	if v, ok := c.Lookup(keyOf("k")); !ok || v != 42 {
		t.Fatalf("Lookup after the flight = (%d, %v), want (42, true)", v, ok)
	}
}

// TestInsertKeepsPresentValue: the store has no overwrite. An Insert on a key
// already present, whether stored by Do or by Insert, keeps the original
// value and size.
func TestInsertKeepsPresentValue(t *testing.T) {
	c := New[int](Options{MaxEntries: 8})
	var calls atomic.Int64
	mustDo(t, c, keyOf("a"), constant(&calls, 1, 10))
	c.Insert(keyOf("a"), 2, 500)
	c.Insert(keyOf("b"), 3, 20)
	c.Insert(keyOf("b"), 4, 700)
	if v, _ := c.Lookup(keyOf("a")); v != 1 {
		t.Fatalf("a = %d after Insert, want the original 1", v)
	}
	if v, oc := mustDo(t, c, keyOf("b"), constant(&calls, 5, 1)); v != 3 || oc != Hit {
		t.Fatalf("Do(b) = (%d, %v), want (3, Hit)", v, oc)
	}
	if s := c.Stats(); s.Entries != 2 || s.Bytes != 30 {
		t.Fatalf("stats = %+v, want 2 entries / 30 bytes", s)
	}
}

// TestInsertEnforcesBounds: Insert evicts least recently used entries past
// MaxEntries and MaxBytes, drops a value too big to ever fit, and Stats
// counts each eviction with the cache's totals after it.
func TestInsertEnforcesBounds(t *testing.T) {
	c := New[int](Options{MaxEntries: 3, MaxBytes: 100})
	insert := func(k string, v int, size int64, want Stats) {
		t.Helper()
		c.Insert(keyOf(k), v, size)
		if s := c.Stats(); s != want {
			t.Fatalf("after inserting %s: stats = %+v, want %+v", k, s, want)
		}
	}
	insert("a", 1, 10, Stats{1, 10, 0})
	insert("b", 2, 10, Stats{2, 20, 0})
	insert("c", 3, 10, Stats{3, 30, 0})
	insert("d", 4, 10, Stats{3, 30, 1}) // over MaxEntries: a goes
	insert("e", 5, 75, Stats{3, 95, 2}) // 105 bytes: b goes
	insert("f", 6, 500, Stats{3, 95, 3})
	for _, k := range []string{"a", "b", "f"} {
		if _, ok := c.Lookup(keyOf(k)); ok {
			t.Errorf("%s should have been evicted", k)
		}
	}
}

// TestLookupMovesToFront: a Lookup hit counts as a use, so the entry it
// touched outlives one that was inserted after it.
func TestLookupMovesToFront(t *testing.T) {
	c := New[int](Options{MaxEntries: 2})
	c.Insert(keyOf("a"), 1, 1)
	c.Insert(keyOf("b"), 2, 1)
	if _, ok := c.Lookup(keyOf("a")); !ok {
		t.Fatal("a missing")
	}
	c.Insert(keyOf("c"), 3, 1)
	if _, ok := c.Lookup(keyOf("a")); !ok {
		t.Fatal("a was evicted after a Lookup made it most recent")
	}
	if _, ok := c.Lookup(keyOf("b")); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
}

// TestConcurrentDoAndInsertOneKey: Do flights and Inserts racing on one key
// store exactly one value, the first to land, and every later reader sees
// that value; the totals count it once. Run under -race this also exercises
// the store's locking.
func TestConcurrentDoAndInsertOneKey(t *testing.T) {
	for round := 0; round < 50; round++ {
		c := New[int](Options{MaxEntries: 8})
		key := keyOf("k")
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if g%2 == 0 {
					c.Insert(key, 100+g, int64(100+g))
					return
				}
				var calls atomic.Int64
				if _, _, err := c.Do(context.Background(), key, constant(&calls, 100+g, int64(100+g))); err != nil {
					t.Error(err)
				}
			}(g)
		}
		wg.Wait()
		v, ok := c.Lookup(key)
		if !ok {
			t.Fatal("no value stored")
		}
		if s := c.Stats(); s.Entries != 1 || s.Bytes != int64(v) {
			t.Fatalf("stats = %+v with value %d stored, want 1 entry / %d bytes", s, v, v)
		}
		if got, oc := mustDo(t, c, key, constant(new(atomic.Int64), -1, 1)); got != v || oc != Hit {
			t.Fatalf("Do after the race = (%d, %v), want (%d, Hit)", got, oc, v)
		}
	}
}
