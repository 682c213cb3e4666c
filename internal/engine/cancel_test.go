package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"opass/internal/core"
	"opass/internal/dfs"
)

func TestRunContextAlreadyCancelled(t *testing.T) {
	r := buildRig(t, 8, 40, 1, dfs.RandomPlacement{})
	a, err := core.RankStatic{}.Assign(r.prob)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunAssignmentContext(ctx, r.opts("rank"), a)
	if res != nil {
		t.Fatalf("got a partial result %+v, want nil", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The aborted-before-start run must not have touched the network.
	if got := r.topo.Net().Active(); got != 0 {
		t.Fatalf("network has %d active flows after pre-start abort", got)
	}
	if _, err := RunAssignment(r.opts("rank"), a); err != nil {
		t.Fatalf("rerun after abort failed: %v", err)
	}
}

func TestRunContextExpiredDeadline(t *testing.T) {
	r := buildRig(t, 8, 40, 2, dfs.RandomPlacement{})
	a, err := core.RankStatic{}.Assign(r.prob)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := RunAssignmentContext(ctx, r.opts("rank"), a)
	if res != nil {
		t.Fatalf("got a partial result %+v, want nil", res)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// cancellingSource cancels the run's own context after serving `after`
// tasks — a deterministic mid-run abort with no wall-clock dependence.
type cancellingSource struct {
	inner  TaskSource
	cancel context.CancelFunc
	after  int
	served int
}

func (s *cancellingSource) Next(proc int) (int, bool) {
	s.served++
	if s.served == s.after {
		s.cancel()
	}
	return s.inner.Next(proc)
}

// TestRunContextMidRunCancelLeavesNetworkIdle: through either entry point a
// mid-run abort returns no partial result, tears down every in-flight flow
// and leaves the shared substrate reusable — sequential rounds share one
// clock.
func TestRunContextMidRunCancelLeavesNetworkIdle(t *testing.T) {
	cases := []struct {
		name string
		// run executes job A from srcA — beside job B arriving at startB,
		// where the entry point takes several jobs.
		run func(ctx context.Context, r *rig, probA, probB *core.Problem, srcA, srcB TaskSource, startB float64) ([]*Result, error)
	}{
		{"RunContext", func(ctx context.Context, r *rig, probA, _ *core.Problem, srcA, _ TaskSource, _ float64) ([]*Result, error) {
			res, err := RunContext(ctx, Options{Topo: r.topo, FS: r.fs, Problem: probA}, srcA)
			if res == nil {
				return nil, err
			}
			return []*Result{res}, err
		}},
		{"RunJobsScheduled", func(ctx context.Context, r *rig, probA, probB *core.Problem, srcA, srcB TaskSource, startB float64) ([]*Result, error) {
			return RunJobsScheduled(ctx, r.topo, r.fs, []JobSpec{
				{Problem: probA, Source: srcA},
				{Problem: probB, Source: srcB, StartAt: startB},
			}, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, probA, probB := twoJobRig(t, 8, 80, 3)
			aA, _ := core.RankStatic{}.Assign(probA)
			aB, _ := core.SingleData{}.Assign(probB)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := &cancellingSource{inner: NewListSource(aA.Lists), cancel: cancel, after: 12}
			// Job B's far-future arrival timer is an in-flight flow the abort
			// must tear down too.
			results, err := tc.run(ctx, r, probA, probB, src, NewListSource(aB.Lists), 1e6)
			if results != nil {
				t.Fatalf("got partial results %+v, want nil", results)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got := r.topo.Net().Active(); got != 0 {
				t.Fatalf("network has %d active flows after mid-run abort", got)
			}
			rerun, err := tc.run(context.Background(), r, probA, probB, NewListSource(aA.Lists), NewListSource(aB.Lists), 0)
			if err != nil {
				t.Fatalf("rerun after mid-run abort failed: %v", err)
			}
			for j, res := range rerun {
				if res.TasksRun != 80 {
					t.Fatalf("rerun job %d executed %d tasks, want 80", j, res.TasksRun)
				}
			}
		})
	}
}

func TestRunContextAbortTearsDownFailureTimers(t *testing.T) {
	// A far-future failure timer is an in-flight simnet flow; an abort must
	// cancel it too, or the network stays busy for the next round.
	r := buildRig(t, 8, 80, 4, dfs.RandomPlacement{})
	a, err := core.RankStatic{}.Assign(r.prob)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := r.opts("rank")
	opts.Failures = []NodeFailure{{Node: 0, At: 1e9}}
	src := &cancellingSource{inner: NewListSource(a.Lists), cancel: cancel, after: 10}
	if _, err := RunContext(ctx, opts, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := r.topo.Net().Active(); got != 0 {
		t.Fatalf("network has %d active flows (leaked failure timer?)", got)
	}
}
