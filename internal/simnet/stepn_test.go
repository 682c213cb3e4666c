package simnet

import "testing"

func TestStepNBudgetedDrain(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	n.Start([]ResourceID{disk}, 50, 0, 0)
	n.Start([]ResourceID{disk}, 150, 0, 0)
	// Two completion events remain; a budget of 1 consumes exactly one and
	// reports more work pending.
	if !n.StepN(1) {
		t.Fatal("StepN(1) = false with a flow still active")
	}
	if n.Active() != 1 {
		t.Fatalf("active = %d after one step, want 1", n.Active())
	}
	if n.StepN(10) {
		t.Fatal("StepN = true after the network drained")
	}
	if n.Active() != 0 {
		t.Fatalf("active = %d after drain, want 0", n.Active())
	}
	// Stepping an idle network is a no-op that reports drained.
	if n.StepN(5) {
		t.Fatal("StepN on an idle network = true")
	}
}

func TestStepNMatchesRun(t *testing.T) {
	// Draining via budgeted slices must land on the same clock as Run.
	build := func() *Network {
		n := New()
		disk := n.AddResource("disk", 100, 0)
		nic := n.AddResource("nic", 120, 0)
		n.Start([]ResourceID{disk}, 50, 0.1, 0)
		n.Start([]ResourceID{disk, nic}, 100, 0, 0)
		n.Start([]ResourceID{nic}, 30, 0.25, 0)
		return n
	}
	ref := build()
	want := ref.Run()
	n := build()
	for n.StepN(2) {
	}
	if got := n.Now(); got != want {
		t.Fatalf("sliced drain ended at %v, Run at %v", got, want)
	}
}
