package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// This file drives Network and the reference solver (reference_test.go)
// through the same byte-coded script and demands bit-identical behaviour:
// TestDifferentialSolver over seeded random scripts, FuzzNetwork over
// whatever the fuzzer derives from the committed corpus.

// simulator is what the script driver needs of either implementation.
type simulator interface {
	AddResource(name string, capacity, seekPenalty float64) ResourceID
	SetScale(id ResourceID, scale float64)
	Start(path []ResourceID, sizeMB, delay float64, handle int) FlowID
	Cancel(id FlowID) float64
	Step() bool
	RunUntil(deadline float64) bool
	Run() float64
	OnComplete(h CompletionHandler)
	Now() float64
	Active() int
	Started() int64
	Completed() int64
	WorkMB(id ResourceID) float64
	settle()              // recompute rates now if they are stale
	activeFlows() []*Flow // in-flight flows in ID order
}

func (n *Network) settle() {
	if n.dirty {
		n.recomputeRates()
	}
}

func (n *Network) activeFlows() []*Flow { return n.flows }

// rec is one observation of a run. Floats are recorded as their bits, so
// comparing two traces is comparing every rate, instant and byte count
// exactly.
type rec struct {
	kind    byte // f: flow state, n: counters, c: completion, x: cancel, w: work
	id      int64
	a, b, c uint64
}

func (r rec) String() string {
	return fmt.Sprintf("%c id=%d [%v %v %v]", r.kind, r.id,
		math.Float64frombits(r.a), math.Float64frombits(r.b), math.Float64frombits(r.c))
}

const (
	maxScriptBytes = 1024
	maxScriptFlows = 96 // bounds the chains completion handlers can start
)

// scriptRun is one execution of a script on one implementation.
type scriptRun struct {
	sim                 simulator
	data                []byte
	caps, seeks, scales []float64
	trace               []rec
	fired               map[FlowID]int
	cancelled           map[FlowID]bool
	checked             bool   // check the invariants no oracle is needed for
	broken              string // the first such invariant violated
}

// runScript decodes data into operations on sim. The vocabulary: 2-8
// resources with seek penalties; flows over 1-5 hops (repeats allowed, so
// NIC-like resources are shared and a path may cross one twice), zero-size
// flows and pure timers, sizes on an 8 MB and start delays on a 40 ms grid so
// that batches of simultaneous completions are common; single and multiple
// Steps, RunUntil, SetScale and Cancel between events; and a completion
// handler that, keyed on the finished flow's ID, starts a follow-on flow
// and/or cancels one of the next three IDs — a batch-mate, an in-flight flow
// or one not yet born.
func runScript(sim simulator, data []byte, checked bool) *scriptRun {
	r := &scriptRun{sim: sim, data: data[:min(len(data), maxScriptBytes)], checked: checked,
		fired: map[FlowID]int{}, cancelled: map[FlowID]bool{}}
	if len(r.data) == 0 {
		return r
	}
	pos := 0
	next := func() byte {
		if pos >= len(r.data) {
			return 0
		}
		pos++
		return r.data[pos-1]
	}
	for i, nres := 0, 2+int(next()%7); i < nres; i++ {
		// Few distinct capacities: tied bottleneck shares are the norm on a
		// cluster of identical disks, and the tie-break is part of the contract.
		c, s := 40+20*float64(next()%6), float64(next()%4)*0.1
		sim.AddResource("r", c, s)
		r.caps, r.seeks, r.scales = append(r.caps, c), append(r.seeks, s), append(r.scales, 1)
	}
	sim.OnComplete(func(now float64, f *Flow) {
		r.trace = append(r.trace, rec{'c', int64(f.ID), math.Float64bits(now), math.Float64bits(f.End), math.Float64bits(f.Start)})
		r.fired[f.ID]++
		at := func(k int) byte { return r.data[(int(f.ID)*3+k)%len(r.data)] }
		react := at(0) % 8 // 0-3 start, 3-4 cancel, 5-7 neither
		if react <= 3 {
			r.start(at(1), at(2), at(3), at(4))
		}
		if react == 3 || react == 4 {
			r.cancel(f.ID + 1 + FlowID(at(5)%3))
		}
	})
	for pos < len(r.data) {
		switch op, arg := next()%8, next(); op {
		case 0, 1, 2:
			r.start(arg, next(), next(), next())
		case 3:
			for i := 0; i < int(arg%4); i++ {
				sim.Step()
				r.observe()
			}
			sim.Step()
		case 4:
			sim.RunUntil(sim.Now() + float64(arg)*0.02)
		case 5:
			id := int(arg) % len(r.caps)
			r.scales[id] = 0.1 + float64(next()%20)*0.1
			sim.SetScale(ResourceID(id), r.scales[id])
		case 6:
			r.cancel(FlowID(arg) % FlowID(sim.Started()+1))
		case 7:
			sim.Step()
		}
		r.observe()
	}
	sim.Run()
	r.observe()
	for i := range r.caps {
		r.trace = append(r.trace, rec{'w', int64(i), math.Float64bits(sim.WorkMB(ResourceID(i))), 0, 0})
	}
	if !checked || r.broken != "" {
		return r
	}
	if sim.Active() != 0 {
		r.broken = fmt.Sprintf("%d flows active after Run", sim.Active())
	}
	for id := FlowID(0); id < FlowID(sim.Started()); id++ {
		want := 1
		if r.cancelled[id] {
			want = 0
		}
		if r.fired[id] != want {
			r.broken = fmt.Sprintf("flow %d: handler fired %d times, want %d (cancelled=%v)", id, r.fired[id], want, r.cancelled[id])
		}
	}
	return r
}

// start launches the flow four script bytes describe: shape picks the hop
// count (0 is a pure timer) and the delay, a and b the resources, c the size.
func (r *scriptRun) start(shape, a, b, c byte) {
	if r.sim.Started() >= maxScriptFlows {
		return
	}
	var path []ResourceID
	for k := 0; k < int(shape%6); k++ {
		path = append(path, ResourceID((int(a)+k*int(b%7))%len(r.caps)))
	}
	size := 0.0
	if len(path) > 0 {
		size = float64(c%16) * 8 // coarse, so equal flows finish together
	}
	r.sim.Start(path, size, float64(shape/6%8)*0.04, 0)
}

func (r *scriptRun) cancel(id FlowID) {
	left := r.sim.Cancel(id)
	if left >= 0 {
		r.cancelled[id] = true
	}
	r.trace = append(r.trace, rec{'x', int64(id), math.Float64bits(left), 0, 0})
}

// observe records every in-flight flow's rate, remaining size and delay as of
// a fresh rate computation, then the counters and the clock.
func (r *scriptRun) observe() {
	r.sim.settle()
	flows := r.sim.activeFlows()
	for _, f := range flows {
		r.trace = append(r.trace, rec{'f', int64(f.ID), math.Float64bits(f.rate), math.Float64bits(f.remaining), math.Float64bits(f.delayLeft)})
	}
	r.trace = append(r.trace, rec{'n', int64(r.sim.Active()), uint64(r.sim.Started()), uint64(r.sim.Completed()), math.Float64bits(r.sim.Now())})
	if !r.checked || r.broken != "" {
		return
	}
	// No resource carries more than its effective capacity at the current
	// stream count (a path crossing a resource twice loads it twice).
	streams, sum := make([]int, len(r.caps)), make([]float64, len(r.caps))
	for _, f := range flows {
		if f.delayLeft > 0 || f.remaining <= 0 {
			continue
		}
		for _, p := range f.Path {
			streams[p]++
			sum[p] += f.rate
		}
	}
	for i, k := range streams {
		if k == 0 {
			continue
		}
		if eff := r.caps[i] * r.scales[i] / (1 + r.seeks[i]*float64(k-1)); sum[i] > eff*(1+1e-9) {
			r.broken = fmt.Sprintf("t=%v: resource %d carries %v MB/s over %d streams, effective capacity %v", r.sim.Now(), i, sum[i], k, eff)
		}
	}
}

// differential runs data on both implementations and fails on the first
// observation that differs in any bit, or on a broken invariant. It returns
// Network's trace.
func differential(t *testing.T, data []byte) []rec {
	t.Helper()
	got, want := runScript(New(), data, true), runScript(newRef(), data, false)
	if got.broken != "" {
		t.Fatalf("invariant: %s", got.broken)
	}
	for i := range want.trace {
		if i >= len(got.trace) || got.trace[i] != want.trace[i] {
			g := "nothing"
			if i < len(got.trace) {
				g = got.trace[i].String()
			}
			t.Fatalf("observation %d of %d: Network %s, reference %s", i, len(want.trace), g, want.trace[i])
		}
	}
	if len(got.trace) != len(want.trace) {
		t.Fatalf("Network made %d observations, reference %d", len(got.trace), len(want.trace))
	}
	return got.trace
}

// Builders for hand-written scripts, one per step of runScript's vocabulary.
// scriptHeader declares resources as {capacity code, seek code} pairs: capacity
// 40+20*code MB/s, seek penalty 0.1*code.
func scriptHeader(res ...[2]byte) []byte {
	out := []byte{byte(len(res) - 2)}
	for _, r := range res {
		out = append(out, r[0], r[1])
	}
	return out
}

// opStart launches a flow over hops resources first, first+stride, ... (mod
// the resource count) moving 8*size MB, with no startup delay.
func opStart(hops, first, stride, size byte) []byte { return []byte{0, hops, first, stride, size} }

func opStep() []byte { return []byte{7, 0} }

// opRunFor advances the clock by ticks*20 ms.
func opRunFor(ticks byte) []byte { return []byte{4, ticks} }

// opScale sets resource res to 0.1+0.1*tenths of its capacity.
func opScale(res, tenths byte) []byte { return []byte{5, res, tenths} }

// targetedScripts reach the solver's short cuts and its tie rule on purpose:
// lone flows (every resource of the path theirs alone) settle without a
// filling round, a flow keeps only its tightest private resource, and the
// bottleneck heap orders equal shares by resource index.
var targetedScripts = []struct {
	name string
	data []byte
}{
	// Lone flows whose tightest resource is second (100, 40) and third
	// (120, 100, 60) on the path, beside a pair sharing resource 5.
	{"lone-tightest-inside-path", slices.Concat(
		scriptHeader([2]byte{3, 0}, [2]byte{0, 0}, [2]byte{4, 1}, [2]byte{3, 0}, [2]byte{1, 0}, [2]byte{2, 2}),
		opStart(2, 0, 1, 5), opStart(3, 2, 1, 7), opStart(1, 5, 0, 3), opStart(1, 5, 0, 4),
		opStep(), opStep())},
	// Resources 1 and 3 (both 100 MB/s, three flows each, 100/3 per flow)
	// tie, and resource 3 is touched first. Flow 2 crosses both: whichever
	// freezes it leaves the other 100-100/3 over two flows, which rounds
	// below 100/3, so the order shows in the other flows' rates.
	{"tied-shares-lower-index-second", slices.Concat(
		scriptHeader([2]byte{0, 0}, [2]byte{3, 0}, [2]byte{0, 0}, [2]byte{3, 0}),
		opStart(1, 3, 0, 2), opStart(1, 3, 0, 3), opStart(2, 1, 2, 4), opStart(1, 1, 0, 5), opStart(1, 1, 0, 6),
		opStep(), opStep(), opStep())},
	// Three flows on one 100 MB/s resource: 100-3*(100/3) is below zero in
	// floating point, and the solver clamps it to 0.
	{"remaining-capacity-clamped", slices.Concat(
		scriptHeader([2]byte{3, 0}, [2]byte{5, 0}),
		opStart(2, 0, 1, 2), opStart(1, 0, 0, 3), opStart(1, 0, 0, 4),
		opStep(), opStep())},
	// A lone flow over resources 0 (100) and 1 (80) slows mid-transfer when
	// resource 0 drops to half and becomes its tightest, then recovers.
	{"scale-lone-flow-disk", slices.Concat(
		scriptHeader([2]byte{3, 0}, [2]byte{2, 0}, [2]byte{1, 1}),
		opStart(2, 0, 1, 15), opStart(1, 2, 0, 6),
		opRunFor(10), opScale(0, 4), opRunFor(10), opScale(0, 9), opStep())},
	// A path naming resource 1 twice loads it twice, so its flow is never
	// lone, even with no other flow about.
	{"path-repeats-resource", slices.Concat(
		scriptHeader([2]byte{2, 2}, [2]byte{3, 3}, [2]byte{1, 0}),
		opStart(2, 1, 0, 5), opStep(), opStart(3, 0, 1, 4), opStep(), opStep())},
}

func randomScript(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 8+rng.Intn(200))
	rng.Read(data)
	return data
}

// TestDifferentialSolver: on seeded random scripts Network agrees with the
// reference solver on every rate after every operation, on the order and
// instant of every completion, on every Cancel result and counter, and on the
// work each resource did.
func TestDifferentialSolver(t *testing.T) {
	for _, c := range targetedScripts {
		t.Run(c.name, func(t *testing.T) { differential(t, c.data) })
	}
	completions, batches, cancels := 0, 0, 0
	for seed := int64(1); seed <= 400; seed++ {
		t.Logf("seed %d", seed) // shown only when the comparison below fails
		var last uint64
		for _, r := range differential(t, randomScript(seed)) {
			switch {
			case r.kind == 'c' && r.a == last:
				batches++
				fallthrough
			case r.kind == 'c':
				completions++
				last = r.a
			case r.kind == 'x' && math.Float64frombits(r.a) >= 0:
				cancels++
			}
		}
	}
	// The scripts must actually reach the cases the table rewrite changed.
	if completions < 5000 || batches < 200 || cancels < 500 {
		t.Fatalf("scripts too tame: %d completions, %d sharing an instant with the one before, %d live cancels", completions, batches, cancels)
	}
}

// FuzzNetwork is the same comparison over fuzzer-chosen scripts, plus the
// invariants that need no oracle (checked inside runScript and observe): no
// resource is oversubscribed, the network is idle after Run, and every flow's
// handler fired exactly once unless the flow was cancelled.
func FuzzNetwork(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomScript(seed))
	}
	for _, c := range targetedScripts {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { differential(t, data) })
}
