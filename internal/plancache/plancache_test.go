package plancache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func keyOf(s string) Key { return KeyOf([]byte(s)) }

// constant returns a compute function yielding v with the given size,
// counting invocations.
func constant(calls *atomic.Int64, v int, size int64) func(context.Context) (int, int64, error) {
	return func(context.Context) (int, int64, error) {
		calls.Add(1)
		return v, size, nil
	}
}

func mustDo(t *testing.T, c *Cache[int], key Key, fn func(context.Context) (int, int64, error)) (int, Outcome) {
	t.Helper()
	v, oc, err := c.Do(context.Background(), key, fn)
	if err != nil {
		t.Fatal(err)
	}
	return v, oc
}

func TestKeyOfFraming(t *testing.T) {
	if KeyOf([]byte("ab"), []byte("c")) == KeyOf([]byte("a"), []byte("bc")) {
		t.Fatal("section boundaries alias")
	}
	if KeyOf([]byte("ab")) == KeyOf([]byte("ab"), nil) {
		t.Fatal("trailing empty section aliases")
	}
	if KeyOf([]byte("ab")) != KeyOf([]byte("ab")) {
		t.Fatal("KeyOf is not deterministic")
	}
}

func TestOutcomeString(t *testing.T) {
	for oc, want := range map[Outcome]string{Miss: "miss", Hit: "hit", Coalesced: "coalesced", Outcome(99): "unknown"} {
		if got := oc.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(oc), got, want)
		}
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := New[int](Options{MaxEntries: 8})
	var calls atomic.Int64
	v, oc := mustDo(t, c, keyOf("k"), constant(&calls, 42, 10))
	if v != 42 || oc != Miss {
		t.Fatalf("first Do = (%d, %v), want (42, Miss)", v, oc)
	}
	v, oc = mustDo(t, c, keyOf("k"), constant(&calls, 99, 10))
	if v != 42 || oc != Hit {
		t.Fatalf("second Do = (%d, %v), want cached (42, Hit)", v, oc)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if s := c.Stats(); s.Entries != 1 || s.Bytes != 10 || s.Evictions != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEntryBoundEvictsLRU(t *testing.T) {
	c := New[int](Options{MaxEntries: 2})
	var calls atomic.Int64
	mustDo(t, c, keyOf("a"), constant(&calls, 1, 1))
	mustDo(t, c, keyOf("b"), constant(&calls, 2, 1))
	mustDo(t, c, keyOf("a"), constant(&calls, 0, 1)) // touch a: b becomes LRU
	mustDo(t, c, keyOf("c"), constant(&calls, 3, 1)) // evicts b
	if _, oc := mustDo(t, c, keyOf("a"), constant(&calls, 0, 1)); oc != Hit {
		t.Fatalf("a should have survived (outcome %v)", oc)
	}
	if _, oc := mustDo(t, c, keyOf("b"), constant(&calls, 2, 1)); oc != Miss {
		t.Fatalf("b should have been evicted (outcome %v)", oc)
	}
	// b once, then c or a when b re-added over bound.
	if s := c.Stats(); s.Entries != 2 || s.Evictions != 1+1 {
		t.Fatalf("stats = %+v, want 2 entries / 2 evictions", s)
	}
}

func TestByteBoundEvicts(t *testing.T) {
	c := New[int](Options{MaxBytes: 100})
	var calls atomic.Int64
	mustDo(t, c, keyOf("a"), constant(&calls, 1, 60))
	mustDo(t, c, keyOf("b"), constant(&calls, 2, 60)) // 120 > 100: a evicted
	s := c.Stats()
	if s.Entries != 1 || s.Bytes != 60 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 entry / 60 bytes / 1 eviction", s)
	}
	if _, oc := mustDo(t, c, keyOf("a"), constant(&calls, 1, 60)); oc != Miss {
		t.Fatalf("a should have been evicted (outcome %v)", oc)
	}
	// A value that alone exceeds the bound is never retained.
	mustDo(t, c, keyOf("big"), constant(&calls, 3, 1000))
	if s := c.Stats(); s.Bytes > 100 {
		t.Fatalf("oversized value retained: %+v", s)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New[int](Options{MaxEntries: 8})
	boom := errors.New("boom")
	var calls atomic.Int64
	_, _, err := c.Do(context.Background(), keyOf("k"), func(context.Context) (int, int64, error) {
		calls.Add(1)
		return 0, 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("error cached: %+v", s)
	}
	if _, oc := mustDo(t, c, keyOf("k"), constant(&calls, 7, 1)); oc != Miss {
		t.Fatalf("second call after error should recompute (outcome %v)", oc)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2", calls.Load())
	}
}

// waiters reports how many callers are attached to the in-flight compute
// for key.
func waiters(c *Cache[int], key Key) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.calls[key]; ok {
		return cl.waiters
	}
	return 0
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescing: N concurrent Do calls with one key run the compute once;
// everyone gets the same value; exactly one leads (Miss), the rest coalesce.
func TestCoalescing(t *testing.T) {
	c := New[int](Options{MaxEntries: 8})
	const n = 8
	key := keyOf("k")
	release := make(chan struct{})
	var calls atomic.Int64
	compute := func(context.Context) (int, int64, error) {
		calls.Add(1)
		<-release
		return 123, 8, nil
	}
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	values := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			values[i], outcomes[i], errs[i] = c.Do(context.Background(), key, compute)
		}(i)
	}
	waitFor(t, "all callers to attach", func() bool { return waiters(c, key) == n })
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	misses, coalesced := 0, 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if values[i] != 123 {
			t.Fatalf("caller %d got %d", i, values[i])
		}
		switch outcomes[i] {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		default:
			t.Fatalf("caller %d outcome %v", i, outcomes[i])
		}
	}
	if misses != 1 || coalesced != n-1 {
		t.Fatalf("misses=%d coalesced=%d, want 1 and %d", misses, coalesced, n-1)
	}
	// The flight's result was cached.
	if _, oc := mustDo(t, c, key, compute); oc != Hit {
		t.Fatalf("post-flight lookup outcome %v, want Hit", oc)
	}
}

// TestWaiterCancelKeepsSharedCompute: one coalesced waiter cancelling must
// not abort the compute the others are waiting for, and their results stay
// intact.
func TestWaiterCancelKeepsSharedCompute(t *testing.T) {
	c := New[int](Options{MaxEntries: 8})
	key := keyOf("k")
	release := make(chan struct{})
	computeCtxErr := make(chan error, 1)
	compute := func(ctx context.Context) (int, int64, error) {
		<-release
		computeCtxErr <- ctx.Err()
		return 7, 1, nil
	}
	leaderDone := make(chan error, 1)
	var leaderVal int
	go func() {
		v, _, err := c.Do(context.Background(), key, compute)
		leaderVal = v
		leaderDone <- err
	}()
	waitFor(t, "leader to attach", func() bool { return waiters(c, key) == 1 })

	wctx, wcancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, oc, err := c.Do(wctx, key, compute)
		if oc != Coalesced {
			err = fmt.Errorf("waiter outcome %v, want Coalesced (err %v)", oc, err)
		}
		waiterDone <- err
	}()
	waitFor(t, "waiter to attach", func() bool { return waiters(c, key) == 2 })

	wcancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	if leaderVal != 7 {
		t.Fatalf("leader value = %d, want 7", leaderVal)
	}
	// The shared compute never saw a cancellation.
	if err := <-computeCtxErr; err != nil {
		t.Fatalf("shared compute ctx was cancelled: %v", err)
	}
	// And the result was cached for later callers.
	if v, oc := mustDo(t, c, key, compute); v != 7 || oc != Hit {
		t.Fatalf("post-flight Do = (%d, %v), want (7, Hit)", v, oc)
	}
}

// TestAllWaitersCancelAbortsCompute: once every caller abandons the
// flight, the shared compute's context is cancelled so it stops burning
// CPU for nobody.
func TestAllWaitersCancelAbortsCompute(t *testing.T) {
	c := New[int](Options{MaxEntries: 8})
	key := keyOf("k")
	aborted := make(chan struct{})
	compute := func(ctx context.Context) (int, int64, error) {
		<-ctx.Done()
		close(aborted)
		return 0, 0, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, key, compute)
		done <- err
	}()
	waitFor(t, "leader to attach", func() bool { return waiters(c, key) == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller err = %v, want context.Canceled", err)
	}
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("shared compute not cancelled after every waiter left")
	}
	// The aborted flight cached nothing.
	waitFor(t, "flight to clear", func() bool { return waiters(c, key) == 0 })
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("aborted flight cached an entry: %+v", s)
	}
}

// TestConcurrentMixedKeys hammers the cache from many goroutines across a
// small key space; run with -race. Asserts only invariants.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New[int](Options{MaxEntries: 4, MaxBytes: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keyOf(fmt.Sprintf("key-%d", (g+i)%6))
				want := (g + i) % 6
				v, _, err := c.Do(context.Background(), k, func(context.Context) (int, int64, error) {
					return want, 16, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v != want {
					t.Errorf("key %d returned %d", want, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries > 4 || s.Bytes > 64 {
		t.Fatalf("bounds violated: %+v", s)
	}
}
