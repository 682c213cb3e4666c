package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"opass/internal/dfs"
)

func TestAssignContextCancelledUpFront(t *testing.T) {
	single, _ := buildSingle(t, 8, 80, 1, dfs.RandomPlacement{})
	multi := multiProblem(t, 8, 40, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		a    Assigner
		p    *Problem
	}{
		{"single", SingleData{}, single},
		{"multi", MultiData{}, multi},
		{"multi-exact", MultiExact{}, multi},
		{"rank-fallback", RankStatic{}, single}, // no ctx support: helper still honors ctx
	}
	for _, c := range cases {
		a, err := AssignContext(ctx, c.a, c.p)
		if a != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got (%v, %v), want (nil, context.Canceled)", c.name, a, err)
		}
	}
}

func TestAssignContextFallbackForPlainAssigner(t *testing.T) {
	p, _ := buildSingle(t, 4, 8, 3, dfs.RoundRobinPlacement{})
	a, err := AssignContext(context.Background(), RankStatic{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(p); err != nil {
		t.Fatal(err)
	}
}

// trippedCtx reports Canceled from its N-th Err() call onward: the first
// check (the helper's up-front one) passes, so the planner's own interior
// cancellation points are the ones under test.
type trippedCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *trippedCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestPlannersPollContextInternally(t *testing.T) {
	single, _ := buildSingle(t, 8, 80, 4, dfs.RandomPlacement{})
	multi := multiProblem(t, 8, 40, 5)
	cases := []struct {
		name string
		a    ContextAssigner
		p    *Problem
	}{
		{"single", SingleData{}, single},
		{"multi", MultiData{}, multi},
		{"multi-exact", MultiExact{}, multi},
	}
	for _, c := range cases {
		ctx := &trippedCtx{Context: context.Background(), after: 1}
		a, err := AssignContext(ctx, c.a, c.p)
		if a != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got (%v, %v), want (nil, context.Canceled) from an interior check", c.name, a, err)
		}
		if ctx.calls.Load() < 2 {
			t.Errorf("%s: planner never polled ctx internally (%d checks)", c.name, ctx.calls.Load())
		}
	}
}

func TestAssignContextLiveMatchesAssign(t *testing.T) {
	// A never-cancelled context must not change the plan.
	p, _ := buildSingle(t, 8, 80, 6, dfs.RandomPlacement{})
	plain, err := SingleData{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := AssignContext(context.Background(), SingleData{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if plain.LocalityFraction() != ctxed.LocalityFraction() {
		t.Fatalf("locality differs: plain %v vs ctx %v",
			plain.LocalityFraction(), ctxed.LocalityFraction())
	}
	for i := range plain.Owner {
		if plain.Owner[i] != ctxed.Owner[i] {
			t.Fatalf("owner[%d] differs: %d vs %d", i, plain.Owner[i], ctxed.Owner[i])
		}
	}
}

// TestCancelledPlanLeavesNothingBehind trips the context at every poll a
// clean plan makes — the index build's stride polls, the matcher's phases,
// Algorithm 1's proposal loop, the exact planner's tight matching (stage 1)
// and its min-cost rounds and arc-scan strides (stage 2, which only the
// skewed problem reaches) — and asserts each cancelled plan returns
// (nil, Canceled), leaves the goroutine count where it started, and hands
// the pooled index buffer back: the build that follows it allocates no new
// edge array. (testing.AllocsPerRun cannot state the last clause — its
// warm-up run would refill the pool — so the bytes of one build are read
// from MemStats; under -race sync.Pool drops Puts at random and the clause
// is skipped.)
//
// Each case trips every poll twice. The goroutine clause runs at
// GOMAXPROCS(2), where a stage that fanned out would start workers; every
// stage is serial today, so it pins that none is left running. The
// allocation clause runs at GOMAXPROCS(1): with two Ps a Release's Put can
// land in the other P's private pool slot, which the next Get cannot reach.
func TestCancelledPlanLeavesNothingBehind(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC between Put and Get would empty the pool
	single, _ := buildSingle(t, 24, 2048, 7, dfs.RandomPlacement{})
	racked, v := buildRacked(t, 16, 4, 1024, 1, 8)
	racked.SetNodeRacksFromView(v)
	for _, c := range []struct {
		name string
		a    ContextAssigner
		p    *Problem
	}{
		{"single", SingleData{}, single},
		{"racked-single", SingleData{}, racked},
		{"multi", MultiData{}, multiProblem(t, 16, 3000, 9)},
		{"multi-exact", MultiExact{}, multiProblem(t, 16, 3000, 9)},
		{"multi-exact-repair", MultiExact{}, skewedSpec(64, 4, 2048, 7).csrBacked()},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "multi-exact-repair" && !stage2Runs(t, c.p) {
				t.Fatal("the tight matching places every task: no min-cost round to trip")
			}
			clean := &trippedCtx{Context: context.Background(), after: math.MaxInt64}
			if _, err := AssignContext(clean, c.a, c.p); err != nil {
				t.Fatal(err)
			}
			polls := clean.calls.Load()
			ix := NewLocalityIndex(c.p)
			indexPolls := int64(1 + (len(c.p.Tasks)+indexCtxStride-1)/indexCtxStride) // AssignContext's own, then the node tier's
			edgeArrayBytes := uint64(ix.NumEdges()) * uint64(unsafe.Sizeof(LocalityEdge{}))
			ix.Release()
			if polls <= indexPolls+1 {
				t.Fatalf("a clean plan polls ctx %d times, %d of them before the solver: no solver poll to trip", polls, indexPolls)
			}
			tripEvery := func(after func(k int64)) {
				for k := int64(1); k < polls; k++ {
					a, err := AssignContext(&trippedCtx{Context: context.Background(), after: k}, c.a, c.p)
					if a != nil || !errors.Is(err, context.Canceled) {
						t.Fatalf("tripped at poll %d of %d: got (%v, %v), want (nil, context.Canceled)", k+1, polls, a, err)
					}
					after(k)
				}
			}

			runtime.GOMAXPROCS(2)
			goroutines := runtime.NumGoroutine()
			tripEvery(func(int64) {})
			for i := 0; runtime.NumGoroutine() > goroutines; i++ { // a goroutine a plan started may still be exiting
				if i == 1000 {
					t.Fatalf("%d goroutines after the cancelled plans, %d before", runtime.NumGoroutine(), goroutines)
				}
				time.Sleep(time.Millisecond)
			}

			runtime.GOMAXPROCS(1)
			NewLocalityIndex(c.p).Release() // the pool's one remaining slot may be empty
			tripEvery(func(k int64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				NewLocalityIndex(c.p).Release()
				runtime.ReadMemStats(&after)
				if got := after.TotalAlloc - before.TotalAlloc; !raceEnabled && got >= edgeArrayBytes {
					t.Fatalf("tripped at poll %d of %d (%d in the index build): the next build allocated %d B, an edge array is %d B",
						k+1, polls, indexPolls, got, edgeArrayBytes)
				}
			})
		})
	}
}
