package engine

import (
	"testing"

	"opass/internal/core"
	"opass/internal/dfs"
)

func TestDispatcherServesEveryTaskOnce(t *testing.T) {
	rig := buildRig(t, 8, 40, 1, nil)
	d := NewDelayDispatcher(rig.prob, 3)
	seen := map[int]bool{}
	waits := 0
	for len(seen) < 40 {
		task, st := d.Poll(len(seen)%8, waits > 100)
		switch st {
		case PollTask:
			if seen[task] {
				t.Fatalf("task %d served twice", task)
			}
			seen[task] = true
		case PollWait:
			waits++
			if waits > 10000 {
				t.Fatal("dispatcher wedged in wait")
			}
		case PollDone:
			t.Fatalf("done with %d tasks unserved", 40-len(seen))
		}
	}
	if _, st := d.Poll(0, false); st != PollDone {
		t.Fatal("drained dispatcher must answer done")
	}
}

func TestDispatcherPrefersLocalTask(t *testing.T) {
	rig := buildRig(t, 8, 40, 2, nil)
	d := NewDelayDispatcher(rig.prob, 3)
	task, st := d.Poll(0, false)
	if st != PollTask {
		// Process 0 might host nothing under this seed; then wait is fine.
		t.Skipf("proc 0 has no local task under this seed")
	}
	if rig.prob.CoLocatedMB(0, task) == 0 {
		t.Fatalf("dispatcher served non-local task %d while local tasks existed", task)
	}
}

func TestDispatcherWaitsThenYields(t *testing.T) {
	// A problem where proc 1's node holds nothing: clustered placement puts
	// all replicas on nodes 0..2 of 8.
	rig := buildRig(t, 8, 16, 3, dfs.ClusteredPlacement{})
	d := NewDelayDispatcher(rig.prob, 2)
	// Process 7 has no local data ever: expect exactly MaxSkips waits, then
	// a forced task.
	for i := 0; i < 2; i++ {
		if _, st := d.Poll(7, false); st != PollWait {
			t.Fatalf("poll %d: expected wait, got %v", i, st)
		}
	}
	if _, st := d.Poll(7, false); st != PollTask {
		t.Fatalf("after MaxSkips expected a task, got %v", st)
	}
}

func TestDispatcherStalledForcesTask(t *testing.T) {
	rig := buildRig(t, 8, 16, 4, dfs.ClusteredPlacement{})
	d := NewDelayDispatcher(rig.prob, 100)
	if _, st := d.Poll(7, true); st != PollTask {
		t.Fatalf("stalled poll must yield a task, got %v", st)
	}
}

func TestDispatcherEndToEndThroughEngine(t *testing.T) {
	rig := buildRig(t, 8, 40, 5, nil)
	d := NewDelayDispatcher(rig.prob, 3)
	res, err := Run(rig.opts("delay"), d)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 40 {
		t.Fatalf("ran %d tasks, want 40", res.TasksRun)
	}
}

func TestDelayBeatsRandomLocality(t *testing.T) {
	// Delay scheduling's whole point: more local dispatches than a random
	// master, though generally fewer than Opass's planned matching.
	run := func(src TaskSource, name string) *Result {
		rig := buildRig(t, 16, 160, 6, nil)
		var s TaskSource
		switch name {
		case "delay":
			s = NewDelayDispatcher(rig.prob, 3)
		case "random":
			s = core.NewRandomDispatcher(rig.prob, 6)
		case "opass":
			plan, err := core.SingleData{Seed: 6}.Assign(rig.prob)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := core.NewDynamicScheduler(rig.prob, plan)
			if err != nil {
				t.Fatal(err)
			}
			s = sched
		}
		res, err := Run(rig.opts(name), s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	random := run(nil, "random")
	delayed := run(nil, "delay")
	opass := run(nil, "opass")
	if delayed.LocalFraction() <= random.LocalFraction() {
		t.Fatalf("delay locality %v <= random %v", delayed.LocalFraction(), random.LocalFraction())
	}
	if opass.LocalFraction() < delayed.LocalFraction() {
		t.Fatalf("opass locality %v below delay %v", opass.LocalFraction(), delayed.LocalFraction())
	}
}
