package plancache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStoreOverwriteAccounting pins the refresh branch of storeLocked: when
// an existing key is overwritten, the old entry's bytes are released before
// the new size is charged. The branch is unreachable through Do today (a
// live entry is a hit, an expired one is removed first), so this white-box
// test keeps the accounting honest for any future caller.
func TestStoreOverwriteAccounting(t *testing.T) {
	c := New[int](Options{})
	k := keyOf("k")
	c.mu.Lock()
	c.storeLocked(k, 1, 100)
	c.mu.Unlock()
	if s := c.Stats(); s.Bytes != 100 || s.Entries != 1 {
		t.Fatalf("after insert: %+v, want 100 bytes / 1 entry", s)
	}
	c.mu.Lock()
	c.storeLocked(k, 2, 40)
	c.mu.Unlock()
	if s := c.Stats(); s.Bytes != 40 || s.Entries != 1 {
		t.Fatalf("after overwrite: %+v, want 40 bytes / 1 entry (old size released)", s)
	}
	if v, oc, _ := c.Do(context.Background(), k, nil); v != 2 || oc != Hit {
		t.Fatalf("Do after overwrite = (%d, %v), want the new value as a hit", v, oc)
	}
}

// TestOnEvictTotalsConverge is the gauge-drift regression: concurrent Do
// flights evicting over a tight bound race their OnEvict callbacks, and a
// gauge mirroring the reported totals (as the HTTP service's
// opass_plan_cache_bytes does) must end exactly at the cache's true totals.
// The pre-fix code captured entry/byte snapshots before racing to the
// callback, so a stale pair could be delivered last and wedge the gauge.
func TestOnEvictTotalsConverge(t *testing.T) {
	var gaugeEntries, gaugeBytes atomic.Int64
	c := New[int](Options{
		MaxEntries: 4,
		OnEvict: func(evicted, entries int, bytes int64) {
			gaugeEntries.Store(int64(entries))
			gaugeBytes.Store(bytes)
		},
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var calls atomic.Int64
			for i := 0; i < 200; i++ {
				key := keyOf(fmt.Sprintf("g%d-i%d", g, i))
				if _, _, err := c.Do(context.Background(), key, constant(&calls, i, 3)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if got := gaugeEntries.Load(); got != int64(s.Entries) {
		t.Fatalf("entries gauge ended at %d, cache holds %d", got, s.Entries)
	}
	if got := gaugeBytes.Load(); got != s.Bytes {
		t.Fatalf("bytes gauge ended at %d, cache holds %d", got, s.Bytes)
	}
}

// TestOnEvictExpiredEntryDuringDo: a Do that finds its entry expired (and
// then leads or coalesces) reports the expiry through OnEvict with totals
// that reflect the removal.
func TestOnEvictExpiredEntryDuringDo(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	type report struct {
		evicted, entries int
		bytes            int64
	}
	var mu sync.Mutex
	var reports []report
	c := New[int](Options{
		TTL: time.Minute,
		Now: clk.now,
		OnEvict: func(evicted, entries int, bytes int64) {
			mu.Lock()
			reports = append(reports, report{evicted, entries, bytes})
			mu.Unlock()
		},
	})
	var calls atomic.Int64
	if _, _, err := c.Do(context.Background(), keyOf("k"), constant(&calls, 1, 7)); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Minute)
	v, oc, err := c.Do(context.Background(), keyOf("k"), constant(&calls, 2, 9))
	if err != nil || v != 2 || oc != Miss {
		t.Fatalf("post-expiry Do = (%d, %v, %v), want (2, Miss, nil)", v, oc, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reports) != 1 || reports[0].evicted != 1 {
		t.Fatalf("OnEvict reports = %+v, want one expiry", reports)
	}
	// The expiry callback races the recompute's store, but under the
	// serialized fresh-read contract it must have reported either the empty
	// cache or the restored entry — never the stale pre-expiry totals with
	// the old 7-byte size after removal.
	r := reports[0]
	if !(r.entries == 0 && r.bytes == 0) && !(r.entries == 1 && r.bytes == 9) {
		t.Fatalf("expiry report %+v is neither post-removal nor post-restore", r)
	}
}
