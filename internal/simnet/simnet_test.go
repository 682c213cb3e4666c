package simnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSingleFlowUncontended(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	n.Start([]ResourceID{disk}, 50, 0.5, 0)
	end := n.Run()
	// 0.5 s delay + 50 MB at 100 MB/s = 1.0 s total.
	if !almostEqual(end, 1.0, 1e-6) {
		t.Fatalf("end = %v, want 1.0", end)
	}
}

func TestPureTimer(t *testing.T) {
	n := New()
	var fired float64 = -1
	n.OnComplete(func(now float64, f *Flow) { fired = now })
	n.Start(nil, 0, 2.5, 0)
	end := n.Run()
	if !almostEqual(end, 2.5, 1e-9) || !almostEqual(fired, 2.5, 1e-9) {
		t.Fatalf("end=%v fired=%v, want 2.5", end, fired)
	}
}

func TestTwoFlowsShareIdeally(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	n.Start([]ResourceID{disk}, 100, 0, 0)
	n.Start([]ResourceID{disk}, 100, 0, 0)
	end := n.Run()
	// Two equal flows share 100 MB/s: each runs at 50 MB/s, both finish at 2 s.
	if !almostEqual(end, 2.0, 1e-6) {
		t.Fatalf("end = %v, want 2.0", end)
	}
}

func TestUnequalFlowsWorkConserving(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	var ends []float64
	n.OnComplete(func(now float64, f *Flow) { ends = append(ends, now) })
	n.Start([]ResourceID{disk}, 50, 0, 0)
	n.Start([]ResourceID{disk}, 150, 0, 0)
	n.Run()
	// Both at 50 MB/s until small finishes at t=1 (50 MB each transferred);
	// big then gets the full 100 MB/s for its remaining 100 MB: ends at t=2.
	if len(ends) != 2 || !almostEqual(ends[0], 1.0, 1e-6) || !almostEqual(ends[1], 2.0, 1e-6) {
		t.Fatalf("ends = %v, want [1.0 2.0]", ends)
	}
}

func TestSeekPenaltyDegradesAggregate(t *testing.T) {
	n := New()
	// alpha = 0.5: with 2 streams the aggregate is 100/1.5 = 66.67 MB/s.
	disk := n.AddResource("disk", 100, 0.5)
	n.Start([]ResourceID{disk}, 100, 0, 0)
	n.Start([]ResourceID{disk}, 100, 0, 0)
	end := n.Run()
	want := 200.0 / (100.0 / 1.5)
	if !almostEqual(end, want, 1e-6) {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestSeekPenaltySingleStreamUnaffected(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0.5)
	n.Start([]ResourceID{disk}, 100, 0, 0)
	end := n.Run()
	if !almostEqual(end, 1.0, 1e-6) {
		t.Fatalf("end = %v, want 1.0 (no penalty for k=1)", end)
	}
}

func TestMaxMinBottleneck(t *testing.T) {
	// Classic max-min example: flows A and B share link1 (cap 100); flow B
	// also crosses link2 (cap 30). B is bottlenecked at 30; A gets 70.
	n := New()
	l1 := n.AddResource("l1", 100, 0)
	l2 := n.AddResource("l2", 30, 0)
	const A, B = 0, 1
	ends := map[int]float64{}
	n.OnComplete(func(now float64, f *Flow) { ends[f.Handle] = now })
	n.Start([]ResourceID{l1}, 70, 0, A)
	n.Start([]ResourceID{l1, l2}, 30, 0, B)
	n.Run()
	if !almostEqual(ends[A], 1.0, 1e-6) || !almostEqual(ends[B], 1.0, 1e-6) {
		t.Fatalf("ends = %v, want both 1.0", ends)
	}
}

func TestRemotePathMinOfResources(t *testing.T) {
	// A remote read crosses disk (75) and two NIC directions (117 each):
	// uncontended rate is min = 75 MB/s.
	n := New()
	disk := n.AddResource("disk", 75, 0)
	tx := n.AddResource("tx", 117, 0)
	rx := n.AddResource("rx", 117, 0)
	n.Start([]ResourceID{disk, tx, rx}, 75, 0, 0)
	end := n.Run()
	if !almostEqual(end, 1.0, 1e-6) {
		t.Fatalf("end = %v, want 1.0", end)
	}
}

func TestDelayDefersBandwidthUse(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	const eager, late = 0, 1
	ends := map[int]float64{}
	n.OnComplete(func(now float64, f *Flow) { ends[f.Handle] = now })
	n.Start([]ResourceID{disk}, 100, 0, eager)
	n.Start([]ResourceID{disk}, 100, 1.0, late)
	n.Run()
	// eager runs alone for 1 s (100 MB done? no: 100 MB at 100 MB/s would
	// finish exactly at 1.0 s, just as late starts).
	if !almostEqual(ends[eager], 1.0, 1e-6) {
		t.Fatalf("eager end = %v, want 1.0", ends[eager])
	}
	if !almostEqual(ends[late], 2.0, 1e-6) {
		t.Fatalf("late end = %v, want 2.0", ends[late])
	}
}

func TestCompletionHandlerChainsFlows(t *testing.T) {
	// Sequential reads: each completion starts the next, like a process
	// reading its chunk list one at a time.
	n := New()
	disk := n.AddResource("disk", 100, 0)
	remaining := 4
	n.OnComplete(func(now float64, f *Flow) {
		remaining--
		if remaining > 0 {
			n.Start([]ResourceID{disk}, 100, 0, 0)
		}
	})
	n.Start([]ResourceID{disk}, 100, 0, 0)
	end := n.Run()
	if !almostEqual(end, 4.0, 1e-6) {
		t.Fatalf("end = %v, want 4.0", end)
	}
	if n.Completed() != 4 {
		t.Fatalf("completed = %d, want 4", n.Completed())
	}
}

func TestRunUntilPausesMidFlow(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	id := n.Start([]ResourceID{disk}, 100, 0, 0)
	_ = id
	active := n.RunUntil(0.5)
	if !active {
		t.Fatal("flow should still be active at t=0.5")
	}
	if !almostEqual(n.Now(), 0.5, 1e-9) {
		t.Fatalf("now = %v, want 0.5", n.Now())
	}
	end := n.Run()
	if !almostEqual(end, 1.0, 1e-6) {
		t.Fatalf("end = %v, want 1.0", end)
	}
}

func TestStartPanicsOnBadArgs(t *testing.T) {
	cases := []func(n *Network, r ResourceID){
		func(n *Network, r ResourceID) { n.Start([]ResourceID{r}, -1, 0, 0) },
		func(n *Network, r ResourceID) { n.Start([]ResourceID{r}, 1, -1, 0) },
		func(n *Network, r ResourceID) { n.Start(nil, 1, 0, 0) },
		func(n *Network, r ResourceID) { n.Start([]ResourceID{99}, 1, 0, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			n := New()
			r := n.AddResource("disk", 100, 0)
			fn(n, r)
		}()
	}
}

func TestAddResourcePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero capacity")
		}
	}()
	New().AddResource("bad", 0, 0)
}

// TestPropertyAllFlowsComplete drives random workloads through the simulator
// and checks global invariants: every flow completes, completion times are at
// least the uncontended lower bound, and total simulated time is at least
// the aggregate-work lower bound of the most loaded resource.
func TestPropertyAllFlowsComplete(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := New()
		numRes := 1 + rng.Intn(5)
		caps := make([]float64, numRes)
		ids := make([]ResourceID, numRes)
		for i := range ids {
			caps[i] = 10 + rng.Float64()*200
			ids[i] = n.AddResource("r", caps[i], rng.Float64()*0.3)
		}
		numFlows := 1 + rng.Intn(20)
		type spec struct {
			size, delay float64
			path        []ResourceID
		}
		specs := make([]spec, numFlows)
		work := make([]float64, numRes)
		for i := range specs {
			pl := 1 + rng.Intn(numRes)
			perm := rng.Perm(numRes)[:pl]
			path := make([]ResourceID, pl)
			for j, p := range perm {
				path[j] = ids[p]
			}
			s := spec{size: rng.Float64() * 100, delay: rng.Float64()}
			s.path = path
			specs[i] = s
			for _, p := range perm {
				work[p] += s.size
			}
		}
		var lower float64
		for i := range work {
			if lb := work[i] / caps[i]; lb > lower {
				lower = lb
			}
		}
		completions := 0
		n.OnComplete(func(now float64, f *Flow) {
			completions++
			// A flow can never beat its uncontended time.
			minTime := f.Delay + f.Size/maxCap(n, f.Path)
			if now-f.Start < minTime-1e-6 {
				t.Errorf("seed %d: flow finished faster than physics allows: %v < %v", seed, now-f.Start, minTime)
			}
		})
		for _, s := range specs {
			n.Start(s.path, s.size, s.delay, 0)
		}
		end := n.Run()
		if completions != numFlows {
			t.Errorf("seed %d: %d/%d flows completed", seed, completions, numFlows)
			return false
		}
		// Aggregate work through the busiest resource bounds the makespan
		// from below (ignoring delays, which only add time).
		if end < lower-1e-6 {
			t.Errorf("seed %d: end %v below work-conservation bound %v", seed, end, lower)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func maxCap(n *Network, path []ResourceID) float64 {
	m := math.Inf(1)
	for _, r := range path {
		if c := n.Resource(r).Capacity; c < m {
			m = c
		}
	}
	return m
}

// TestPropertyRatesRespectCapacity inspects instantaneous rates mid-run.
func TestPropertyRatesRespectCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := New()
	numRes := 4
	ids := make([]ResourceID, numRes)
	alphas := []float64{0, 0.1, 0.2, 0.3}
	for i := range ids {
		ids[i] = n.AddResource("r", 100, alphas[i])
	}
	flows := make([]FlowID, 0, 30)
	for i := 0; i < 30; i++ {
		pl := 1 + rng.Intn(numRes)
		perm := rng.Perm(numRes)[:pl]
		path := make([]ResourceID, pl)
		for j, p := range perm {
			path[j] = ids[p]
		}
		flows = append(flows, n.Start(path, 50+rng.Float64()*100, 0, 0))
	}
	n.recomputeRates()
	// Sum of rates through each resource must not exceed its effective
	// capacity, and every transferring flow must have a positive rate.
	sum := make([]float64, numRes)
	cnt := make([]int, numRes)
	for _, id := range flows {
		f := n.flows[id]
		if f.rate <= 0 {
			t.Fatalf("flow %d has non-positive rate %v", id, f.rate)
		}
		for _, r := range f.Path {
			sum[int(r)] += f.rate
			cnt[int(r)]++
		}
	}
	for i := range sum {
		if cnt[i] == 0 {
			continue
		}
		eff := 100.0 / (1 + alphas[i]*float64(cnt[i]-1))
		if sum[i] > eff+1e-6 {
			t.Fatalf("resource %d oversubscribed: %v > %v", i, sum[i], eff)
		}
	}
}

// TestDeterminism runs the same workload twice and demands identical output.
func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		rng := rand.New(rand.NewSource(42))
		n := New()
		ids := []ResourceID{
			n.AddResource("a", 80, 0.1),
			n.AddResource("b", 120, 0),
		}
		var ends []float64
		n.OnComplete(func(now float64, f *Flow) { ends = append(ends, now) })
		for i := 0; i < 25; i++ {
			path := []ResourceID{ids[rng.Intn(2)]}
			if rng.Intn(2) == 0 {
				path = append(path, ids[(int(path[0])+1)%2])
			}
			n.Start(path, rng.Float64()*64, rng.Float64()*0.05, 0)
		}
		n.Run()
		return ends
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different completion counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at completion %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCancelRedistributesBandwidth(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	a := n.Start([]ResourceID{disk}, 100, 0, 0)
	n.Start([]ResourceID{disk}, 100, 0, 0)
	// Run to t=0.5: both at 50 MB/s have moved 25 MB, 75 MB left each.
	n.RunUntil(0.5)
	left := n.Cancel(a)
	if !almostEqual(left, 75, 1e-6) {
		t.Fatalf("cancelled remaining = %v, want 75", left)
	}
	end := n.Run()
	// Survivor's remaining 75 MB now runs at full 100 MB/s: ends at 1.25.
	if !almostEqual(end, 1.25, 1e-6) {
		t.Fatalf("end = %v, want 1.25", end)
	}
	if n.Completed() != 1 {
		t.Fatalf("completed = %d, want 1 (victim must not complete)", n.Completed())
	}
}

func TestCancelUnknownFlow(t *testing.T) {
	n := New()
	if got := n.Cancel(FlowID(42)); got != -1 {
		t.Fatalf("cancel of unknown flow = %v, want -1", got)
	}
}

func TestCancelDoesNotFireHandler(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	fired := 0
	n.OnComplete(func(now float64, f *Flow) { fired++ })
	id := n.Start([]ResourceID{disk}, 100, 0, 0)
	n.Cancel(id)
	n.Run()
	if fired != 0 {
		t.Fatalf("handler fired %d times for cancelled flow", fired)
	}
}

func TestWorkAccounting(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	tx := n.AddResource("tx", 200, 0)
	n.Start([]ResourceID{disk, tx}, 100, 0, 0)
	n.Start([]ResourceID{disk}, 50, 0, 0)
	n.Run()
	if !almostEqual(n.WorkMB(disk), 150, 1e-6) {
		t.Fatalf("disk work = %v, want 150", n.WorkMB(disk))
	}
	if !almostEqual(n.WorkMB(tx), 100, 1e-6) {
		t.Fatalf("tx work = %v, want 100", n.WorkMB(tx))
	}
}

func TestUtilization(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	n.Start([]ResourceID{disk}, 100, 0, 0)
	n.Run() // takes exactly 1s at full rate: utilization 1.0
	if u := n.Utilization(disk, 0); !almostEqual(u, 1.0, 1e-6) {
		t.Fatalf("utilization = %v, want 1.0", u)
	}
	// Idle time dilutes utilization: a timer doubles elapsed time.
	n.Start(nil, 0, 1.0, 0)
	n.Run()
	if u := n.Utilization(disk, 0); !almostEqual(u, 0.5, 1e-6) {
		t.Fatalf("utilization after idle = %v, want 0.5", u)
	}
	if u := n.Utilization(disk, n.Now()); u != 0 {
		t.Fatalf("empty window utilization = %v", u)
	}
}
