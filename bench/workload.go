package main

import (
	"hash/fnv"
	"math/rand"
	"strconv"
)

// workload is one traffic mix: the shape of every request body, the route it
// is posted to, and how the timed loop walks the bodies.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json, README).
	Why   string
	Route string
	Procs int // nodes; one process per node
	Tasks int
	// Sizes holds the size in MB of each input of a task; every task of a
	// workload has the same shape.
	Sizes []float64
	// CacheOn leaves the plan cache at its defaults; otherwise it is disabled.
	CacheOn bool
	// Requests is the timed request count when -seconds is 0; Distinct the
	// number of distinct bodies they cycle over.
	Requests int
	Distinct int
	// HotP > 0 makes the request order a seeded sequence: a share HotP of
	// the requests repeat one of the Distinct hot bodies, picked uniformly;
	// each of the others sends a body never sent before.
	HotP float64
	// Faults adds one permanent crash, one degradation, replan and repair to
	// every body (simulate only).
	Faults bool
}

// kuhnTasks mirrors httpapi's unexported kuhnTaskThreshold: at or above it
// the service plans equal-size single-data problems with the Kuhn matcher.
// The traced pass uses it to time the solver the service picks; core.planner_ms
// (server-reported) always reflects the service's real choice.
const kuhnTasks = 1 << 13

// hotBlock is the stratum length of a HotP request sequence.
const hotBlock = 10

// warmups is the number of untimed requests each set-up sends, over bodies
// generated only for that purpose (so they never pre-fill the plan cache with
// a body the timed loop counts on missing).
const warmups = 3

var workloads = []workload{
	{
		Name:  "paper-single",
		Why:   "Paper-scale single-data plan (256 procs x 2560 x 64 MB): Edmonds-Karp is ~90% of the request, so a matcher change must show here and decode or cache work must not.",
		Route: "/v1/plan", Procs: 256, Tasks: 2560, Sizes: []float64{64},
		Requests: 300, Distinct: 32,
	},
	{
		Name:  "paper-multi",
		Why:   "Same size with 3 inputs per task: Algorithm 1 bypasses bipartite and the 320 KB body makes decode and mirror-FS build dominate; locality ~0.49 keeps the quality guard live.",
		Route: "/v1/plan", Procs: 256, Tasks: 2560, Sizes: []float64{30, 20, 10},
		Requests: 1000, Distinct: 32,
	},
	{
		Name:  "fleet-bulk",
		Why:   "100 tasks per process (25600 tasks, 1.3 MB body), above the 2^13-task switch so Kuhn runs; index, graph build, canonical and encode are milliseconds, and allocation metrics carry weight.",
		Route: "/v1/plan", Procs: 256, Tasks: 25600, Sizes: []float64{64},
		Requests: 120, Distinct: 8,
	},
	{
		Name:  "cache-mix",
		Why:   "Plan cache on, 80% of requests repeat one of 32 hot bodies: p50 is the hit path (solver skipped), p90 the miss path; a cache simplification that costs hits shows here.",
		Route: "/v1/plan", Procs: 256, Tasks: 2560, Sizes: []float64{64}, CacheOn: true,
		Requests: 1000, Distinct: 32, HotP: 0.8,
	},
	{
		Name:  "simulate-faults",
		Why:   "Simulation with a crash, a degradation, replan and repair (128 procs x 1280): the only workload running engine, simnet, the dfs write side and the delta replan.",
		Route: "/v1/simulate", Procs: 128, Tasks: 1280, Sizes: []float64{64},
		Requests: 300, Distinct: 32, Faults: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// problem is one generated request: the body the service receives and the
// facts the client keeps to validate the answer.
type problem struct {
	w *workload
	// replicas holds 3 distinct nodes per input, task-major.
	replicas  []uint16
	seed      int64
	crashNode int // -1 without faults
	slowNode  int
	body      []byte
}

const replicasPerInput = 3

// inputReplicas returns the replica nodes of input in of task t.
func (p *problem) inputReplicas(t, in int) []uint16 {
	o := (t*len(p.w.Sizes) + in) * replicasPerInput
	return p.replicas[o : o+replicasPerInput]
}

// traffic is everything one set-up generates for a workload.
type traffic struct {
	problems []*problem // hot (cycled) bodies first, then never-repeated ones
	warm     []*problem
	// order lists indexes into problems. Without HotP it is 0..Distinct-1 and
	// the loop cycles it; with HotP it is the finite seeded sequence.
	order []int
}

// rngFor derives an independent stream per (seed, workload, purpose).
func rngFor(seed int64, name, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// generate builds the workload's bodies and request order from the seed
// alone. seqLen is the length of the HotP sequence (ignored otherwise).
func generate(w *workload, seed int64, seqLen int) *traffic {
	tr := &traffic{}
	fresh := 0
	if w.HotP > 0 {
		// Stratified: every block of hotBlock requests holds exactly
		// HotP*hotBlock hot ones, in seeded order. The hit ratio is then the
		// same for every seed and run length, which keeps the metrics that
		// depend on it (allocation, p90, throughput) steady across seeds.
		seq := rngFor(seed, w.Name, "order")
		hot := int(w.HotP*hotBlock + 0.5)
		for len(tr.order) < seqLen {
			for _, slot := range seq.Perm(hotBlock) {
				if slot < hot {
					tr.order = append(tr.order, seq.Intn(w.Distinct))
				} else {
					tr.order = append(tr.order, w.Distinct+fresh)
					fresh++
				}
			}
		}
		tr.order = tr.order[:seqLen]
	} else {
		for i := 0; i < w.Distinct; i++ {
			tr.order = append(tr.order, i)
		}
	}
	bodies := rngFor(seed, w.Name, "bodies")
	for i := 0; i < w.Distinct+fresh; i++ {
		tr.problems = append(tr.problems, newProblem(w, bodies))
	}
	warm := rngFor(seed, w.Name, "warm")
	for i := 0; i < warmups; i++ {
		tr.warm = append(tr.warm, newProblem(w, warm))
	}
	return tr
}

func newProblem(w *workload, rng *rand.Rand) *problem {
	p := &problem{w: w, seed: rng.Int63n(1 << 31), crashNode: -1, slowNode: -1}
	n := w.Procs
	inputs := w.Tasks * len(w.Sizes)
	p.replicas = make([]uint16, 0, inputs*replicasPerInput)
	for i := 0; i < inputs; i++ {
		// Three distinct uniform nodes: draw from the shrinking remainder
		// and step over the earlier picks in ascending order.
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		c := rng.Intn(n - 2)
		lo, hi := min(a, b), max(a, b)
		if c >= lo {
			c++
		}
		if c >= hi {
			c++
		}
		p.replicas = append(p.replicas, uint16(a), uint16(b), uint16(c))
	}
	if w.Faults {
		p.crashNode = rng.Intn(n)
		p.slowNode = rng.Intn(n - 1)
		if p.slowNode >= p.crashNode {
			p.slowNode++
		}
	}
	p.body = p.encode()
	return p
}

// encode renders the request body. proc_nodes is omitted: the service then
// places one process per node, which is the layout the validator assumes.
func (p *problem) encode() []byte {
	w := p.w
	b := make([]byte, 0, 64+w.Tasks*len(w.Sizes)*44)
	b = append(b, `{"nodes":`...)
	b = strconv.AppendInt(b, int64(w.Procs), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendInt(b, p.seed, 10)
	if w.Faults {
		b = append(b, `,"failures":[{"node":`...)
		b = strconv.AppendInt(b, int64(p.crashNode), 10)
		b = append(b, `,"at_seconds":3}],"degradations":[{"node":`...)
		b = strconv.AppendInt(b, int64(p.slowNode), 10)
		b = append(b, `,"at_seconds":1,"disk_factor":0.5,"nic_factor":0.5}],"replan":true,"repair":true,"repair_delay_seconds":2`...)
	}
	b = append(b, `,"tasks":[`...)
	for t := 0; t < w.Tasks; t++ {
		if t > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"inputs":[`...)
		for in, size := range w.Sizes {
			if in > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"size_mb":`...)
			b = strconv.AppendFloat(b, size, 'g', -1, 64)
			b = append(b, `,"replicas":[`...)
			for i, node := range p.inputReplicas(t, in) {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(node), 10)
			}
			b = append(b, `]}`...)
		}
		b = append(b, `]}`...)
	}
	return append(b, `]}`...)
}
