package simnet

import (
	"math/rand"
	"testing"
)

// The engine's crash handling (engine.nodeFailed) runs inside a completion
// handler and cancels reads that may have finished in the very same batch:
// Cancel must then report -1 — the flow is already out of the table — and the
// batch-mate's own handler must still fire.
func TestCancelOfBatchMateFromHandler(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	a := n.Start([]ResourceID{disk}, 50, 0, 0)
	b := n.Start([]ResourceID{disk}, 50, 0, 0) // same size, same disk: one batch
	var order []FlowID
	cancelled := 0.0
	n.OnComplete(func(now float64, f *Flow) {
		order = append(order, f.ID)
		if f.ID == a {
			cancelled = n.Cancel(b)
		}
	})
	if n.Step() {
		t.Fatal("both flows should finish in the first event")
	}
	if cancelled != -1 {
		t.Fatalf("Cancel of a batch-mate = %v, want -1", cancelled)
	}
	if len(order) != 2 || order[0] != a || order[1] != b {
		t.Fatalf("handlers fired for %v, want [%d %d]", order, a, b)
	}
	if n.Completed() != 2 || n.Active() != 0 {
		t.Fatalf("completed=%d active=%d, want 2 and 0", n.Completed(), n.Active())
	}
}

// A flow started by a handler while its batch is being delivered joins the
// table once, after the survivors, and is not advanced by the step that
// delivered the batch.
func TestStartFromHandlerDuringBatch(t *testing.T) {
	n := New()
	d0 := n.AddResource("d0", 100, 0)
	d1 := n.AddResource("d1", 100, 0)
	d2 := n.AddResource("d2", 100, 0)
	a := n.Start([]ResourceID{d0}, 100, 0, 0)
	n.Start([]ResourceID{d0}, 100, 0, 0)          // a and b end together at t=2
	slow := n.Start([]ResourceID{d1}, 1000, 0, 0) // survives the batch
	var child FlowID = -1
	ends := map[FlowID]float64{}
	n.OnComplete(func(now float64, f *Flow) {
		ends[f.ID] = now
		if f.ID == a {
			child = n.Start([]ResourceID{d2}, 100, 0, 0)
		}
	})
	if !n.Step() || n.Now() != 2 {
		t.Fatalf("first event at %v, want the batch at t=2", n.Now())
	}
	if got := n.activeFlows(); len(got) != 2 || got[0].ID != slow || got[1].ID != child {
		t.Fatalf("table after the batch = %v, want [%d %d]", got, slow, child)
	}
	if f := n.activeFlows()[1]; f.Start != 2 || f.Remaining() != 100 {
		t.Fatalf("child start=%v remaining=%v, want 2 and 100 (untouched by the delivering step)", f.Start, f.Remaining())
	}
	n.Run()
	if ends[child] != 3 || ends[slow] != 10 {
		t.Fatalf("child ended at %v, survivor at %v, want 3 and 10", ends[child], ends[slow])
	}
	if n.Started() != 4 || n.Completed() != 4 {
		t.Fatalf("started=%d completed=%d, want 4 and 4", n.Started(), n.Completed())
	}
}

// Cancel finds flows by binary search over the ID-ordered table: it must keep
// working for first, middle and last entries as the table shrinks, and leave
// the order intact.
func TestCancelKeepsTableOrdered(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	var ids []FlowID
	for i := 0; i < 7; i++ {
		ids = append(ids, n.Start([]ResourceID{disk}, 10, 0, 0))
	}
	for _, i := range []int{3, 0, 6, 3, 5} { // middle, first, last, repeat, new last
		want := 10.0
		if i == 3 && n.Active() < 6 {
			want = -1
		}
		if got := n.Cancel(ids[i]); got != want {
			t.Fatalf("Cancel(%d) = %v, want %v", ids[i], got, want)
		}
	}
	got := n.activeFlows()
	if len(got) != 3 || got[0].ID != ids[1] || got[1].ID != ids[2] || got[2].ID != ids[4] {
		t.Fatalf("table = %v, want flows %d %d %d", got, ids[1], ids[2], ids[4])
	}
	if n.Run(); n.Completed() != 3 {
		t.Fatalf("completed = %d, want 3", n.Completed())
	}
}

// The solver's scratch lives on the Network: once warm, an event that retires
// nothing — here a delay expiry, which still forces a full rate recompute —
// allocates nothing in recomputeRates, nextEvent, advance or completeFinished.
func TestStepSteadyStateAllocatesNothing(t *testing.T) {
	const nodes, waiting = 64, 120
	n := New()
	var disk, tx, rx []ResourceID
	for i := 0; i < nodes; i++ {
		disk = append(disk, n.AddResource("disk", 75, 0.25))
		tx = append(tx, n.AddResource("tx", 117, 0))
		rx = append(rx, n.AddResource("rx", 117, 0))
	}
	start := func(i int, delay float64) FlowID {
		src, dst := i%nodes, (i*7+1)%nodes
		if i%3 == 0 {
			return n.Start([]ResourceID{disk[src]}, 1e9, delay, 0)
		}
		return n.Start([]ResourceID{disk[src], tx[src], rx[dst]}, 1e9, delay, 0)
	}
	// Warm the scratch with every flow transferring at once, then put the
	// second half back behind staggered delays.
	var late []FlowID
	for i := 0; i < 2*waiting; i++ {
		if id := start(i, 0); i >= waiting {
			late = append(late, id)
		}
	}
	n.settle()
	for _, id := range late {
		n.Cancel(id)
	}
	for i := 0; i < waiting; i++ {
		start(waiting+i, 0.001*float64(i+1))
	}
	before := n.RateRecomputes()
	allocs := testing.AllocsPerRun(waiting-20, func() {
		if !n.Step() {
			t.Fatal("network drained")
		}
	})
	if allocs != 0 {
		t.Fatalf("Step allocated %v times per event in steady state, want 0", allocs)
	}
	if n.Completed() != 0 || n.RateRecomputes()-before < waiting-20 {
		t.Fatalf("completed=%d recomputes=%d: the measured events must be delay expiries, each with a recompute",
			n.Completed(), n.RateRecomputes()-before)
	}
}

// DESIGN §11's "nothing is allocated in steady state" for the solver alone:
// after one warm solve of a 128-node network with 30 % of reads remote (lone
// local flows, shared disks, private NICs, heap rounds), a forced re-solve
// allocates nothing — the bottleneck heap and requeue list are reused.
func TestRecomputeRatesWarmAllocatesNothing(t *testing.T) {
	const nodes = 128
	rng := rand.New(rand.NewSource(1))
	n := New()
	var disk, tx, rx []ResourceID
	for i := 0; i < nodes; i++ {
		disk = append(disk, n.AddResource("disk", 75, 0.25))
		tx = append(tx, n.AddResource("tx", 117, 0))
		rx = append(rx, n.AddResource("rx", 117, 0))
	}
	for node := 0; node < nodes; node++ {
		path := []ResourceID{disk[node]}
		if rng.Float64() < 0.3 {
			src := (node + 1 + rng.Intn(nodes-1)) % nodes
			path = []ResourceID{disk[src], tx[src], rx[node]}
		}
		n.Start(path, 60+8*rng.Float64(), 0, 0)
	}
	n.recomputeRates()
	if cap(n.heap) == 0 {
		t.Fatal("no filling round ran: the network has no shared resource")
	}
	if allocs := testing.AllocsPerRun(50, n.recomputeRates); allocs != 0 {
		t.Fatalf("a warm recomputeRates allocated %v times, want 0", allocs)
	}
}

// Events and RateRecomputes count what Step did: one event per Step that
// advanced, one recompute per event that followed a change.
func TestWorkCounters(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	n.Start([]ResourceID{disk}, 100, 0.5, 0) // delay expiry, then completion
	n.Start(nil, 0, 2, 0)                    // fires after a is done
	n.Run()
	if n.Events() != 3 {
		t.Fatalf("events = %d, want 3", n.Events())
	}
	// Start dirties the rates, the expiry does, and a's completion does.
	if n.RateRecomputes() != 3 {
		t.Fatalf("recomputes = %d, want 3", n.RateRecomputes())
	}
	// A RunUntil that stops short of the next event is not an event.
	n.Start([]ResourceID{disk}, 100, 0, 0)
	n.RunUntil(n.Now() + 0.25)
	if n.Events() != 3 {
		t.Fatalf("events after a partial advance = %d, want 3", n.Events())
	}
}
