package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"opass/internal/core"
)

// TestDetachWaitingIsolatesBatch is the regression test for the waiting-list
// aliasing bug: retryWaiting used to grab the batch with an in-place
// truncation (`ws := waiting; waiting = waiting[:0]`), so appends issued
// while iterating the batch landed in the same backing array the loop was
// reading. One append per item happens to stay behind the read index, but
// the contract must hold for any append pattern — two appends per item is
// exactly the shape that clobbers the aliased batch (the second append
// overwrites the next unread slot). detachWaiting steals the slice, so the
// batch is immune no matter what the loop pushes back.
func TestDetachWaitingIsolatesBatch(t *testing.T) {
	waiting := make([]int, 0, 16)
	waiting = append(waiting, 0, 1, 2, 3)
	ws := detachWaiting(&waiting)
	if len(waiting) != 0 {
		t.Fatalf("waiting kept %d entries after detach", len(waiting))
	}
	for i, proc := range ws {
		if proc != i {
			t.Fatalf("batch[%d] = %d, want %d (batch clobbered by re-wait appends)", i, proc, i)
		}
		// Re-wait two processes per batch item, as a job with more
		// processes than batch slots can.
		waiting = append(waiting, 10+2*i, 11+2*i)
	}
	if want := []int{10, 11, 12, 13, 14, 15, 16, 17}; !reflect.DeepEqual(waiting, want) {
		t.Fatalf("re-waited list = %v, want %v", waiting, want)
	}
}

// schedRecorder is a minimal ClusterScheduler: it hands each job a
// pre-planned source and records the arrival clock and the served-MB
// reconciliation callbacks.
type schedRecorder struct {
	srcs     map[int]TaskSource
	arrivals map[int]float64
	finished map[int][]float64
}

func (s *schedRecorder) JobArriving(job int, spec JobSpec, now float64) (TaskSource, error) {
	s.arrivals[job] = now
	return s.srcs[job], nil
}

func (s *schedRecorder) JobFinished(job int, servedMB []float64) {
	s.finished[job] = servedMB
}

func TestRunJobsScheduledPlansAtArrival(t *testing.T) {
	r, probA, probB := twoJobRig(t, 8, 24, 91)
	aA, _ := core.SingleData{}.Assign(probA)
	aB, _ := core.SingleData{}.Assign(probB)
	sched := &schedRecorder{
		srcs:     map[int]TaskSource{0: NewListSource(aA.Lists), 1: NewListSource(aB.Lists)},
		arrivals: map[int]float64{},
		finished: map[int][]float64{},
	}
	const startB = 5.0
	results, err := RunJobsScheduled(context.Background(), r.topo, r.fs, []JobSpec{
		{Problem: probA, Strategy: "a"},
		{Problem: probB, Strategy: "b", StartAt: startB},
	}, sched)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.arrivals[0]; got != 0 {
		t.Fatalf("job 0 arrived at %v, want 0", got)
	}
	if got := sched.arrivals[1]; math.Abs(got-startB) > 1e-9 {
		t.Fatalf("job 1 arrived at %v, want %v", got, startB)
	}
	for j, res := range results {
		if res.TasksRun != 24 {
			t.Fatalf("job %d ran %d tasks", j, res.TasksRun)
		}
		// The reconciliation callback must see exactly the job's own
		// service profile.
		if !reflect.DeepEqual(sched.finished[j], res.ServedMB) {
			t.Fatalf("job %d JobFinished served %v, result says %v", j, sched.finished[j], res.ServedMB)
		}
	}
	if got := results[1].Arrival; got != startB {
		t.Fatalf("job 1 Arrival = %v, want %v", got, startB)
	}
	if jm := results[1].JobMakespan(); math.Abs(jm-(results[1].Makespan-startB)) > 1e-9 {
		t.Fatalf("JobMakespan = %v, want completion-minus-arrival %v", jm, results[1].Makespan-startB)
	}
}

// steerBalancer is a ClusterScheduler that is also a ReadSteerer.
type steerBalancer struct {
	schedRecorder
	*steerer
}

// TestServingBalancerSteersRemoteReads: through either entry point every
// remote read goes where the steerer said and every read start is reported.
func TestServingBalancerSteersRemoteReads(t *testing.T) {
	type rigged struct {
		r      *rig
		pA, pB *core.Problem
		aA, aB *core.Assignment
	}
	cases := []struct {
		name string
		run  func(x rigged, bal *steerer) ([]*Result, error)
	}{
		{"Run", func(x rigged, bal *steerer) ([]*Result, error) {
			res, err := Run(Options{Topo: x.r.topo, FS: x.r.fs, Problem: x.pB, Balancer: bal}, NewListSource(x.aB.Lists))
			return []*Result{res}, err
		}},
		{"RunJobsScheduled", func(x rigged, bal *steerer) ([]*Result, error) {
			sched := &steerBalancer{
				schedRecorder: schedRecorder{
					srcs:     map[int]TaskSource{0: NewListSource(x.aA.Lists), 1: NewListSource(x.aB.Lists)},
					arrivals: map[int]float64{},
					finished: map[int][]float64{},
				},
				steerer: bal,
			}
			return RunJobsScheduled(context.Background(), x.r.topo, x.r.fs, []JobSpec{
				{Problem: x.pA, Strategy: "a"},
				{Problem: x.pB, Strategy: "b"},
			}, sched)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, probA, probB := twoJobRig(t, 8, 24, 92)
			aA, _ := core.SingleData{}.Assign(probA)
			// RankStatic ignores locality, guaranteeing remote reads to steer.
			aB, _ := core.RankStatic{}.Assign(probB)
			bal := &steerer{}
			results, err := tc.run(rigged{r, probA, probB, aA, aB}, bal)
			if err != nil {
				t.Fatal(err)
			}
			remote := 0
			startedWant := map[int]float64{}
			for _, res := range results {
				for _, rec := range res.Records {
					startedWant[rec.SrcNode] += rec.SizeMB
					if rec.Local {
						continue
					}
					remote++
					// Every remote read must have gone where the steerer
					// said: the lowest-numbered holder of its chunk.
					best := -1
					for _, h := range r.fs.Chunk(rec.Chunk).Replicas {
						if h != rec.DstNode && (best < 0 || h < best) {
							best = h
						}
					}
					if rec.SrcNode != best {
						t.Fatalf("remote read of chunk %d served by %d, balancer chose %d", rec.Chunk, rec.SrcNode, best)
					}
				}
			}
			if remote == 0 {
				t.Fatal("no remote reads; the balancer path was not exercised")
			}
			if bal.picks != remote {
				t.Fatalf("balancer consulted %d times for %d remote reads", bal.picks, remote)
			}
			if !reflect.DeepEqual(bal.started, startedWant) {
				t.Fatalf("ReadStarted tally %v, want %v", bal.started, startedWant)
			}
		})
	}
}

func TestRunJobsDeterministic(t *testing.T) {
	// Same seed, same specs: byte-identical per-job results, including the
	// staggered arrival interleaving.
	run := func() []*Result {
		r, probA, probB := twoJobRig(t, 8, 24, 93)
		aA, _ := core.SingleData{}.Assign(probA)
		aB, _ := core.RankStatic{}.Assign(probB)
		results, err := RunJobs(r.topo, r.fs, []JobSpec{
			{Problem: probA, Source: NewListSource(aA.Lists), Strategy: "a"},
			{Problem: probB, Source: NewListSource(aB.Lists), Strategy: "b", StartAt: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	first, second := run(), run()
	for j := range first {
		if !reflect.DeepEqual(first[j], second[j]) {
			t.Fatalf("job %d differs between identical runs:\n%+v\n%+v", j, first[j], second[j])
		}
	}
}

func TestRunJobsScheduledAlreadyCancelled(t *testing.T) {
	r, probA, _ := twoJobRig(t, 8, 24, 95)
	aA, _ := core.SingleData{}.Assign(probA)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunJobsScheduled(ctx, r.topo, r.fs, []JobSpec{
		{Problem: probA, Source: NewListSource(aA.Lists), Strategy: "a"},
	}, nil)
	if results != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("results=%v err=%v, want nil results and context.Canceled", results, err)
	}
	if got := r.topo.Net().Active(); got != 0 {
		t.Fatalf("network has %d active flows after pre-start abort", got)
	}
}

// gateJobSource is gateSource bound to one job of a multi-job run: tasks
// are handed out strictly in ID order to the matching rank, so several
// processes per job sit in the engine's per-job waiting lists at once and
// are re-waited across many retryWaiting passes — the multi-job variant of
// the access pattern behind the aliasing bug.
type gateJobSource struct {
	next, total, procs int
	waits              int
}

func (s *gateJobSource) Next(proc int) (int, bool) {
	t, st := s.Poll(proc, true)
	return t, st == PollTask
}

func (s *gateJobSource) Poll(proc int, stalled bool) (int, PollState) {
	if s.next >= s.total {
		return 0, PollDone
	}
	if stalled || s.next%s.procs == proc {
		t := s.next
		s.next++
		return t, PollTask
	}
	s.waits++
	return 0, PollWait
}

func TestRunJobsReentrantWaitingExactlyOnce(t *testing.T) {
	const nodes, tasks = 8, 64
	r, probA, probB := twoJobRig(t, nodes, tasks, 96)
	srcA := &gateJobSource{total: tasks, procs: nodes}
	srcB := &gateJobSource{total: tasks, procs: nodes}
	results, err := RunJobs(r.topo, r.fs, []JobSpec{
		{Problem: probA, Source: srcA, Strategy: "a"},
		{Problem: probB, Source: srcB, Strategy: "b", StartAt: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, res := range results {
		seen := make([]int, tasks)
		for _, rec := range res.Records {
			seen[rec.Task]++
		}
		for task, n := range seen {
			if n != 1 {
				t.Fatalf("job %d task %d read %d times (waiting list corrupted)", j, task, n)
			}
		}
	}
	if srcA.waits == 0 || srcB.waits == 0 {
		t.Fatalf("gates never made a process wait (A=%d B=%d); regression path not exercised", srcA.waits, srcB.waits)
	}
}
