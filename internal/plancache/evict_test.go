package plancache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

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
