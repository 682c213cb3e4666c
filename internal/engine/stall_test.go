package engine

import (
	"testing"

	"opass/internal/core"
	"opass/internal/dfs"
)

// patientSource models a delay-scheduling master at its most patient: it
// asks every idle worker to wait unless the engine reports the cluster
// stalled, in which case it serves the next task in ID order. Progress
// therefore depends entirely on the engine's stalled detection: if pending
// failure timers count as active work, no poll is ever marked stalled and
// every worker parks until the timer fires.
type patientSource struct {
	next, total int
	waits       int
}

func (s *patientSource) Next(proc int) (int, bool) {
	t, st := s.Poll(proc, true)
	return t, st == PollTask
}

func (s *patientSource) Poll(proc int, stalled bool) (int, PollState) {
	if s.next >= s.total {
		return 0, PollDone
	}
	if !stalled {
		s.waits++
		return 0, PollWait
	}
	t := s.next
	s.next++
	return t, PollTask
}

// TestStalledDetectionIgnoresFailureTimers is the regression test for the
// engine counting scheduled kindFailure timers as active work. With a
// far-future DataNode crash on the books, net.Active() never reached zero,
// so a PollingSource answering PollWait parked every worker until the crash
// timer fired — inflating the makespan to the failure time. The fix tracks
// failure timers separately; the job must finish long before the crash.
func TestStalledDetectionIgnoresFailureTimers(t *testing.T) {
	const nodes, tasks = 8, 24
	const failAt = 500.0
	r := buildRig(t, nodes, tasks, 3, dfs.RandomPlacement{})
	src := &patientSource{total: tasks}
	opts := r.opts("patient")
	opts.Failures = []NodeFailure{{Node: 0, At: failAt}}
	res, err := Run(opts, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != tasks {
		t.Fatalf("tasks run = %d, want %d", res.TasksRun, tasks)
	}
	if src.waits == 0 {
		t.Fatal("source never answered PollWait; the waiting path was not exercised")
	}
	// 24 sequential 64 MB reads finish in well under a minute of virtual
	// time; only the stalled-detection bug can push the makespan out to the
	// crash timer.
	if res.Makespan >= failAt {
		t.Fatalf("makespan %.1fs reached the failure time %.0fs: workers were parked on the crash timer", res.Makespan, failAt)
	}
}

// TestRunJobsStalledDetectionIgnoresArrivalTimers is the same regression for
// arrival timers: a job still waiting for its StartAt is not work in flight,
// so a patient job running beside it must not be parked until it arrives.
func TestRunJobsStalledDetectionIgnoresArrivalTimers(t *testing.T) {
	const nodes, tasks = 8, 24
	const arriveAt = 500.0
	r, probA, probB := twoJobRig(t, nodes, tasks, 3)
	aB, err := core.RankStatic{}.Assign(probB)
	if err != nil {
		t.Fatal(err)
	}
	src := &patientSource{total: tasks}
	results, err := RunJobs(r.topo, r.fs, []JobSpec{
		{Problem: probA, Source: src, Strategy: "patient"},
		{Problem: probB, Source: NewListSource(aB.Lists), Strategy: "late", StartAt: arriveAt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].TasksRun != tasks || results[1].TasksRun != tasks {
		t.Fatalf("tasks run = %d, %d, want %d each", results[0].TasksRun, results[1].TasksRun, tasks)
	}
	if src.waits == 0 {
		t.Fatal("source never answered PollWait; the waiting path was not exercised")
	}
	if got := results[0].Makespan; got >= arriveAt/2 {
		t.Fatalf("patient job makespan %.1fs: workers were parked on the other job's arrival timer at %.0fs", got, arriveAt)
	}
}
