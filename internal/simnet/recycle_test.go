package simnet

import (
	"slices"
	"testing"
)

// TestRecycledFlowsKeepTheirIdentity drives flow recycling through its
// hardest case: a handler that cancels a batch-mate and a flow still in
// flight, starts flows over paths of every length and re-enters Step while
// two batch-mates still wait for their handlers. Every handler must see the
// ID, size, path and handle of its own flow, and no Start may hand out an
// object whose previous flow is active or still owed its handler.
func TestRecycledFlowsKeepTheirIdentity(t *testing.T) {
	n := New()
	var r []ResourceID
	for i := 0; i < 12; i++ {
		r = append(r, n.AddResource("r", 100, 0))
	}
	type want struct {
		size   float64
		path   []ResourceID
		handle int
	}
	wants := map[FlowID]want{}
	owed := map[*Flow]FlowID{} // objects whose flow is active or owed a handler
	start := func(path []ResourceID, size float64, handle int) FlowID {
		id := n.Start(path, size, 0, handle)
		f := n.activeFlows()[n.Active()-1]
		if prev, ok := owed[f]; ok {
			t.Fatalf("flow %d reuses the object of flow %d, which is still owed its handler", id, prev)
		}
		owed[f] = id
		wants[id] = want{size, slices.Clone(path), handle}
		return id
	}
	cancel := func(id FlowID) float64 {
		i := slices.IndexFunc(n.activeFlows(), func(f *Flow) bool { return f.ID == id })
		if i < 0 {
			return n.Cancel(id)
		}
		f := n.activeFlows()[i]
		delete(owed, f) // free for reuse at once
		return n.Cancel(id)
	}

	const (
		first  = iota // the batch-mate whose handler does everything
		mate          // its batch-mates
		long          // in flight when the batch completes
		short         // started and completed inside first's handler
		follow        // started by short's handler
		fresh         // started by first's handler after its nested Step
	)
	a := start(r[:1], 50, first)
	b := start(r[:1], 50, mate) // a, b and c share r[0]: one batch at t=1.5
	start(r[:1], 50, mate)
	l := start(r[1:2], 1000, long)
	start(r[2:7], 1000, long)
	handled, cancelled := 0, 0
	n.OnComplete(func(now float64, f *Flow) {
		w, ok := wants[f.ID]
		if !ok || f.Size != w.size || !slices.Equal(f.Path, w.path) || f.Handle != w.handle {
			t.Fatalf("handler for flow %d sees size %v, path %v, handle %d; it was started with %+v", f.ID, f.Size, f.Path, f.Handle, w)
		}
		if owed[f] != f.ID {
			t.Fatalf("flow %d's handler holds the object of flow %d", f.ID, owed[f])
		}
		delete(owed, f)
		handled++
		switch f.Handle {
		case first:
			if f.ID != a {
				t.Fatalf("the batch's first handler is flow %d's, want %d's", f.ID, a)
			}
			if left := cancel(b); left != -1 {
				t.Fatalf("Cancel of a batch-mate = %v, want -1", left)
			}
			if left := cancel(l); left <= 0 {
				t.Fatalf("Cancel of a flow in flight = %v, want its remaining MB", left)
			}
			cancelled++
			start(r[7:8], 1, short)
			if !n.Step() { // short completes inside this handler
				t.Fatal("network drained inside the handler")
			}
			for k, path := range [][]ResourceID{r[8:9], r[8:11], r[7:12], r[6:12]} {
				start(path, float64(10+k), fresh)
			}
		case short:
			start(r[9:10], 2, follow)
		}
	})
	n.Run()
	if len(owed) != 0 {
		t.Fatalf("%d flows never completed nor were cancelled", len(owed))
	}
	if got := int64(handled + cancelled); got != n.Started() || n.Completed() != int64(handled) {
		t.Fatalf("started %d, completed %d, handled %d, cancelled %d", n.Started(), n.Completed(), handled, cancelled)
	}
}

// TestFlowCycleAllocatesNothing: once warm, a flow's whole life — Start, the
// Steps that carry it, its completion or its Cancel — allocates nothing. A
// retired flow is reused, and a local (1 resource), remote (3) or cross-rack
// (5) path is held inside the flow.
func TestFlowCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	n := New()
	var r []ResourceID
	for i := 0; i < 9; i++ {
		r = append(r, n.AddResource("r", 100, 0.25))
	}
	paths := [][]ResourceID{r[:1], r[1:4], r[4:9]}
	// Like the engine, a handler retires each local read into the next.
	n.OnComplete(func(now float64, f *Flow) {
		if f.Handle == 0 {
			n.Start(paths[0], 32, 0.01, 1)
		}
	})
	cycle := func() {
		for i, p := range paths {
			n.Start(p, 64, 0.01, i)
		}
		if left := n.Cancel(n.Start(paths[1], 64, 0, 3)); left != 64 {
			t.Fatalf("Cancel of a fresh flow = %v, want 64", left)
		}
		for n.Step() {
		}
	}
	cycle() // warm the table, the free list and the solver's scratch
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a warm flow cycle allocated %v times, want 0", allocs)
	}
}

// TestResetRunsLikeNew: a network Reset after a life of its own — a script
// run, a resource scaled, flows left in flight, the clock and counters
// advanced — traces the next script exactly as a new network does: every
// rate, completion instant, flow ID, Cancel result, counter and resource's
// work, bit for bit.
func TestResetRunsLikeNew(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		n := New()
		runScript(n, randomScript(seed), false)
		n.SetScale(0, 0.3)
		n.Start([]ResourceID{0}, 64, 0.5, 7)
		n.Step()
		n.Start(nil, 0, 3, 8)
		n.Reset()
		if n.Now() != 0 || n.Started() != 0 || n.Completed() != 0 || n.Events() != 0 || n.RateRecomputes() != 0 || n.Active() != 0 || len(n.resources) != 0 {
			t.Fatalf("seed %d: Reset left clock %v, %d started, %d completed, %d events, %d solves, %d active, %d resources",
				seed, n.Now(), n.Started(), n.Completed(), n.Events(), n.RateRecomputes(), n.Active(), len(n.resources))
		}
		script := randomScript(seed + 1000)
		got, want := runScript(n, script, false).trace, runScript(New(), script, false).trace
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: a reset network traced %d observations unlike a new one's %d", seed, len(got), len(want))
		}
	}
}
