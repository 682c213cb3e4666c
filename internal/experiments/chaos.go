package experiments

import (
	"fmt"
	"math"
	"strings"

	"opass/internal/core"
	"opass/internal/engine"
	"opass/internal/workload"
)

// This file is the chaos study: a sweep of seeded fault scenarios run three
// times each — per-read failover only (what the faults study exercises),
// the recovery subsystem with full-backlog replans, and the recovery
// subsystem on its default O(delta) replan path. Every run is checked
// against hard invariants (checkInvariants) and every scenario against the
// improvements it asserts (gate).

// ChaosScenario is one seeded fault injection to sweep.
type ChaosScenario struct {
	Name         string
	Failures     []engine.NodeFailure
	Degradations []engine.NodeDegradation
	RepairDelay  float64
	// AssertLocality requires the full-replan run to strictly beat the
	// failover-only run on post-failure local fraction; AssertMakespan
	// requires a strictly shorter makespan. Transient scenarios assert
	// neither — there only the safety invariants are checked.
	AssertLocality bool
	AssertMakespan bool
}

// Tolerance bands for the delta-replan gates. The delta path produces the
// same per-process task distribution as the full re-match, but tasks it
// leaves queued keep their previously drawn remote sources — a different
// contention roll, not a planning regression — so makespan and post-fault
// locality jitter. Measured worst cases across 16/32/64-node sweeps:
// makespan ratio 1.006 vs failover (crash-late), locality deficit 0.003 —
// the bands leave ~3x headroom without letting a real regression through.
const (
	deltaMakespanSlack = 1.02 // delta makespan <= failover makespan x this
	deltaLocalitySlack = 0.02 // delta post-local >= failover post-local - this
)

// chaosScenarios builds the sweep for a cluster of the given size. The
// node indices scale with the cluster so -scale keeps them valid.
func chaosScenarios(nodes int) []ChaosScenario {
	return []ChaosScenario{
		{
			Name:           "crash-early",
			Failures:       []engine.NodeFailure{{Node: 1, At: 1.0}},
			RepairDelay:    2.0,
			AssertLocality: true,
			AssertMakespan: true,
		},
		{
			Name:           "crash-late",
			Failures:       []engine.NodeFailure{{Node: nodes / 2, At: 3.0}},
			RepairDelay:    1.5,
			AssertLocality: true,
			AssertMakespan: true,
		},
		{
			Name: "double-crash",
			Failures: []engine.NodeFailure{
				{Node: 1, At: 1.0},
				{Node: nodes / 2, At: 2.5},
			},
			RepairDelay:    1.5,
			AssertLocality: true,
			AssertMakespan: true,
		},
		{
			Name:     "transient-outage",
			Failures: []engine.NodeFailure{{Node: 2, At: 0.5, RecoverAt: 2.5}},
		},
		{
			// A slow disk never changes placement, so failover-only stays
			// fully local — only the makespan can (and must) improve.
			Name: "degraded-disk",
			Degradations: []engine.NodeDegradation{
				{Node: 1, At: 0.5, DiskFactor: 0.15, NICFactor: 1.0},
			},
			AssertMakespan: true,
		},
	}
}

// ChaosRun is one scenario×seed comparison. Replan is the full-backlog
// re-match; Delta is the engine's default O(delta) path that re-matches
// only event-affected tasks.
type ChaosRun struct {
	Scenario string
	Seed     int64
	Failover StrategyResult
	Replan   StrategyResult
	Delta    StrategyResult
	// Post-failure local fractions: the local share of bytes read at or
	// after the first fault event.
	FailoverPostLocal float64
	ReplanPostLocal   float64
	DeltaPostLocal    float64
	Replans           int
	RepairedChunks    int
	Retries           int
	// DeltaReplannedTasks counts tasks the delta run re-matched — the
	// surgical subset, gated to stay strictly below the task count.
	DeltaReplannedTasks int
}

// ChaosResult is the full sweep.
type ChaosResult struct {
	Nodes int
	Runs  []ChaosRun
}

// faultStart returns the virtual time of the first fault event — the
// cutoff for the post-failure locality comparison.
func faultStart(s ChaosScenario) float64 {
	start := math.Inf(1)
	for _, f := range s.Failures {
		start = math.Min(start, f.At)
	}
	for _, d := range s.Degradations {
		start = math.Min(start, d.At)
	}
	if math.IsInf(start, 1) {
		return 0
	}
	return start
}

// postLocalFraction is the local share of megabytes read by reads starting
// at or after the cutoff (1 when nothing started after it).
func postLocalFraction(res *engine.Result, after float64) float64 {
	var local, total float64
	for _, rec := range res.Records {
		if rec.Start < after {
			continue
		}
		total += rec.SizeMB
		if rec.Local {
			local += rec.SizeMB
		}
	}
	if total == 0 {
		return 1
	}
	return local / total
}

// checkInvariants enforces the scenario-independent safety properties of a
// completed run.
func checkInvariants(s ChaosScenario, run StrategyResult, tasks int) error {
	res, where := run.run, run.Strategy
	if n := run.rig.Topo.Net().Active(); n != 0 {
		return fmt.Errorf("%s: %d flows still active after the run", where, n)
	}
	if res.TasksRun != tasks {
		return fmt.Errorf("%s: ran %d tasks, want %d", where, res.TasksRun, tasks)
	}
	for _, f := range s.Failures {
		until := f.RecoverAt
		for _, rec := range res.Records {
			if rec.SrcNode != f.Node {
				continue
			}
			if rec.End > f.At+1e-9 && (until == 0 || rec.Start < until) {
				return fmt.Errorf("%s: read of chunk %d served by node %d while it was down (%.3f-%.3f)",
					where, rec.Chunk, f.Node, rec.Start, rec.End)
			}
		}
	}
	return nil
}

// gate returns the first improvement the scenario asserts and the row
// misses. The full re-match must strictly beat failover; the delta re-match
// is held to the same flags within the tolerance bands, plus the
// surgical-count gates: it must actually replan, and must touch strictly
// fewer tasks than a full re-match would.
func (s ChaosScenario) gate(row ChaosRun, deltaReplans, tasks int) error {
	asserted := s.AssertLocality || s.AssertMakespan
	switch {
	case s.AssertLocality && !(row.ReplanPostLocal > row.FailoverPostLocal):
		return fmt.Errorf("post-failure local fraction did not improve (replan %.4f vs failover %.4f)",
			row.ReplanPostLocal, row.FailoverPostLocal)
	case s.AssertMakespan && !(row.Replan.Makespan < row.Failover.Makespan):
		return fmt.Errorf("makespan did not improve (replan %.3f vs failover %.3f)",
			row.Replan.Makespan, row.Failover.Makespan)
	case asserted && row.Replans == 0:
		return fmt.Errorf("recovery run never replanned")
	case s.AssertLocality && row.DeltaPostLocal < row.FailoverPostLocal-deltaLocalitySlack:
		return fmt.Errorf("delta post-failure local fraction regressed (delta %.4f vs failover %.4f)",
			row.DeltaPostLocal, row.FailoverPostLocal)
	case s.AssertMakespan && row.Delta.Makespan > row.Failover.Makespan*deltaMakespanSlack:
		return fmt.Errorf("delta makespan regressed (delta %.3f vs failover %.3f)",
			row.Delta.Makespan, row.Failover.Makespan)
	case asserted && deltaReplans == 0:
		return fmt.Errorf("delta recovery run never replanned")
	case asserted && (row.DeltaReplannedTasks <= 0 || row.DeltaReplannedTasks >= tasks):
		return fmt.Errorf("delta replan was not surgical (%d of %d tasks re-matched)", row.DeltaReplannedTasks, tasks)
	}
	return nil
}

// Chaos sweeps the fault scenarios over two seeds, comparing per-read
// failover against the recovery subsystem on both replan paths (full
// re-match and the default O(delta) re-match) and enforcing every
// scenario's invariants. It returns an error on any violation — the sweep
// is a runnable acceptance harness, not just a report.
func Chaos(cfg Config) (*ChaosResult, error) {
	nodes := cfg.scale(64)
	if nodes < 8 {
		return nil, fmt.Errorf("chaos: %d nodes too small for the scenario set (need >= 8)", nodes)
	}
	const chunksPerProc = 8
	tasks := nodes * chunksPerProc
	out := &ChaosResult{Nodes: nodes}
	for _, s := range chaosScenarios(nodes) {
		for _, seed := range []int64{cfg.Seed, cfg.Seed + 1} {
			faults := func(o *engine.Options) {
				o.Failures, o.Degradations = s.Failures, s.Degradations
			}
			recovery := func(full bool) func(*engine.Options) {
				return func(o *engine.Options) {
					faults(o)
					o.Replan, o.ReplanFull, o.ReplanSeed = true, full, seed
					o.Repair, o.RepairDelay = true, s.RepairDelay
				}
			}
			rig := workload.SingleSpec{Nodes: nodes, ChunksPerProc: chunksPerProc, Seed: seed}
			opass := core.SingleData{Seed: seed}
			runs, err := runArms(
				arm{label: "failover", rig: rig.Build, plan: opass, tweak: faults},
				arm{label: "replan-full", rig: rig.Build, plan: opass, tweak: recovery(true)},
				arm{label: "replan-delta", rig: rig.Build, plan: opass, tweak: recovery(false)},
			)
			fail := func(err error) (*ChaosResult, error) {
				return nil, fmt.Errorf("chaos %s seed %d: %w", s.Name, seed, err)
			}
			if err != nil {
				return fail(err)
			}
			for _, run := range runs {
				if err := checkInvariants(s, run, tasks); err != nil {
					return fail(err)
				}
			}
			fo, rp, dl := runs[0], runs[1], runs[2]
			cut := faultStart(s)
			row := ChaosRun{
				Scenario:            s.Name,
				Seed:                seed,
				Failover:            fo,
				Replan:              rp,
				Delta:               dl,
				FailoverPostLocal:   postLocalFraction(fo.run, cut),
				ReplanPostLocal:     postLocalFraction(rp.run, cut),
				DeltaPostLocal:      postLocalFraction(dl.run, cut),
				Replans:             rp.run.Replans,
				RepairedChunks:      rp.run.RepairedChunks,
				Retries:             rp.run.Retries,
				DeltaReplannedTasks: dl.run.DeltaReplannedTasks,
			}
			if err := s.gate(row, dl.run.Replans, tasks); err != nil {
				return fail(err)
			}
			out.Runs = append(out.Runs, row)
		}
	}
	return out, nil
}

// Render prints the sweep as one row per scenario×seed.
func (r *ChaosResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos harness — failover vs full replan vs delta replan (%d nodes, all invariants held)\n", r.Nodes)
	fmt.Fprintf(&b, "  %-18s %5s  %26s  %26s  %7s %8s %7s %6s\n",
		"scenario", "seed", "makespan fo/full/delta (s)", "post-fail local fo/fu/de", "replans", "repaired", "retries", "dtasks")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "  %-18s %5d  %8.2f %8.2f %8.2f  %8.1f %8.1f %8.1f  %7d %8d %7d %6d\n",
			run.Scenario, run.Seed,
			run.Failover.Makespan, run.Replan.Makespan, run.Delta.Makespan,
			100*run.FailoverPostLocal, 100*run.ReplanPostLocal, 100*run.DeltaPostLocal,
			run.Replans, run.RepairedChunks, run.Retries, run.DeltaReplannedTasks)
	}
	return b.String()
}
