package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
)

// The client decodes responses into its own structs, so the wire format is
// checked from outside rather than through the server's types.

type planBody struct {
	Strategy         string  `json:"strategy"`
	Owner            []int   `json:"owner"`
	Lists            [][]int `json:"lists"`
	LocalityFraction float64 `json:"locality_fraction"`
	PlannerMillis    float64 `json:"planner_ms"`
}

type simBody struct {
	Plan    planBody `json:"plan"`
	Summary struct {
		Tasks         int     `json:"tasks"`
		LocalFraction float64 `json:"local_fraction"`
		FailedNodes   []int   `json:"failed_nodes"`
	} `json:"summary"`
}

// localityTolerance is how closely the reported locality fraction must match
// the one recomputed from the generated replica lists.
const localityTolerance = 1e-9

// answer is what the validator extracts from a valid response.
type answer struct {
	// locality is locality_fraction for a plan and summary.local_fraction
	// for a simulation.
	locality  float64
	plannerMS float64
}

// checkResponse validates one response against the problem that produced it.
func checkResponse(p *problem, status int, body []byte) (answer, error) {
	if status != http.StatusOK {
		return answer{}, fmt.Errorf("status %d: %.200s", status, body)
	}
	if p.w.Route == "/v1/simulate" {
		var sim simBody
		if err := json.Unmarshal(body, &sim); err != nil {
			return answer{}, fmt.Errorf("decode simulate response: %w", err)
		}
		if err := checkPlan(p, &sim.Plan); err != nil {
			return answer{}, err
		}
		if sim.Summary.Tasks != p.w.Tasks {
			return answer{}, fmt.Errorf("summary.tasks = %d, want %d", sim.Summary.Tasks, p.w.Tasks)
		}
		if !slices.Contains(sim.Summary.FailedNodes, p.crashNode) {
			return answer{}, fmt.Errorf("crashed node %d missing from failed_nodes %v", p.crashNode, sim.Summary.FailedNodes)
		}
		// The achieved fraction depends on the simulated faults, so the
		// client can only bound it; the plan's own fraction was recomputed
		// above, and the traced pass compares this value with a direct
		// engine run.
		if f := sim.Summary.LocalFraction; !(f >= 0 && f <= 1) {
			return answer{}, fmt.Errorf("summary.local_fraction = %v outside [0,1]", f)
		}
		return answer{locality: sim.Summary.LocalFraction, plannerMS: sim.Plan.PlannerMillis}, nil
	}
	var plan planBody
	if err := json.Unmarshal(body, &plan); err != nil {
		return answer{}, fmt.Errorf("decode plan response: %w", err)
	}
	if err := checkPlan(p, &plan); err != nil {
		return answer{}, err
	}
	return answer{locality: plan.LocalityFraction, plannerMS: plan.PlannerMillis}, nil
}

// checkPlan checks that a plan is a valid, quota-respecting assignment whose
// reported locality is the one its owners really achieve.
func checkPlan(p *problem, plan *planBody) error {
	w := p.w
	if len(plan.Owner) != w.Tasks {
		return fmt.Errorf("owner covers %d tasks, want %d", len(plan.Owner), w.Tasks)
	}
	if len(plan.Lists) != w.Procs {
		return fmt.Errorf("%d lists, want %d", len(plan.Lists), w.Procs)
	}
	for t, o := range plan.Owner {
		if o < 0 || o >= w.Procs {
			return fmt.Errorf("task %d owned by process %d outside [0,%d)", t, o, w.Procs)
		}
	}
	seen := make([]bool, w.Tasks)
	for proc, list := range plan.Lists {
		for _, t := range list {
			if t < 0 || t >= w.Tasks {
				return fmt.Errorf("list of process %d holds invalid task %d", proc, t)
			}
			if seen[t] {
				return fmt.Errorf("task %d listed twice", t)
			}
			seen[t] = true
			if plan.Owner[t] != proc {
				return fmt.Errorf("task %d listed under process %d but owned by %d", t, proc, plan.Owner[t])
			}
		}
	}
	if i := slices.Index(seen, false); i >= 0 {
		return fmt.Errorf("task %d in no list", i)
	}
	if len(w.Sizes) == 1 {
		// Equal-size single-data: the paper's equal-share constraint.
		quota := (w.Tasks + w.Procs - 1) / w.Procs
		for proc, list := range plan.Lists {
			if len(list) > quota {
				return fmt.Errorf("process %d holds %d tasks, quota %d", proc, len(list), quota)
			}
		}
	}
	// Process i runs on node i, so an input is local when its owner is one
	// of its replica nodes.
	var local, total float64
	for t, o := range plan.Owner {
		for in, size := range w.Sizes {
			total += size
			if slices.Contains(p.inputReplicas(t, in), uint16(o)) {
				local += size
			}
		}
	}
	if want := local / total; math.Abs(plan.LocalityFraction-want) > localityTolerance {
		return fmt.Errorf("locality_fraction = %.12f, recomputed %.12f", plan.LocalityFraction, want)
	}
	return nil
}
