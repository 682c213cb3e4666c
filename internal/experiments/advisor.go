package experiments

import (
	"fmt"
	"strings"

	"opass/internal/advisor"
	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
	"opass/internal/workload"
)

// The advisor experiment quantifies ROADMAP item 2 (adaptive replication):
// a skewed, shifting workload — every round hammers one of several datasets,
// and the hotspot moves between phases — planned by the same matcher on both
// sides. The static side keeps the initial 3-way replication; the advised
// side records reads into the namenode's access accounting and lets the
// replication advisor re-point copies between rounds and mid-round (advisor
// ticks trigger backlog replans). Because the advisor funds every hot-chunk
// promotion by trimming cold datasets to its replica floor, the advised side must
// end no larger than it started: the win is locality per stored byte, not
// locality bought with more storage.

// Tuning constants for the advisor workload shape.
const (
	// advisorDatasets is how many equally-sized datasets exist; only one is
	// hot at a time, so most of the fleet is cold inventory the advisor can
	// trim.
	advisorDatasets = 6
	// advisorPhases is how many times the hotspot moves (phase p reads
	// dataset p); advisorRounds is the job count per phase. The last round
	// of each phase is the steady state the study scores.
	advisorPhases = 3
	advisorRounds = 4
	// advisorTasksPerNode sizes each round: tasksPerNode*nodes tasks, all
	// reading the hot dataset's chunks round-robin, so every chunk is wanted
	// by more readers than it has copies under static replication.
	advisorTasksPerNode = 2
)

// AdvisorSide aggregates one side (static or advised) of the study.
type AdvisorSide struct {
	Label string `json:"label"`
	// RoundLocal is the local byte fraction of every round in run order
	// (advisorPhases * advisorRounds entries).
	RoundLocal []float64 `json:"round_local"`
	// SteadyLocal is the mean local fraction over the last round of each
	// phase — the placement each side converged to before the hotspot moved.
	SteadyLocal float64 `json:"steady_local"`
	// StoredMB is the cluster's stored megabytes after the last round.
	StoredMB float64 `json:"stored_mb"`
	// MakespanS sums the per-round makespans (total virtual time working).
	MakespanS float64 `json:"makespan_s"`
}

// AdvisorResult contrasts static 3-way replication with the advised loop
// over the same placement and task sequence.
type AdvisorResult struct {
	Nodes     int     `json:"nodes"`
	Datasets  int     `json:"datasets"`
	ChunksPer int     `json:"chunks_per_dataset"`
	Phases    int     `json:"phases"`
	Rounds    int     `json:"rounds_per_phase"`
	BudgetMB  float64 `json:"budget_mb"`

	Static  AdvisorSide `json:"static"`
	Advised AdvisorSide `json:"advised"`

	// Advisor action counts on the advised side.
	Ticks           int `json:"ticks"`
	ReplicasAdded   int `json:"replicas_added"`
	ReplicasRemoved int `json:"replicas_removed"`

	// SteadyLocalGain is Advised.SteadyLocal - Static.SteadyLocal (local
	// byte fraction, so 0.1 means ten points of locality).
	SteadyLocalGain float64 `json:"steady_local_gain"`
}

// advisorRig is one side's freshly built cluster: shared-seed placement so
// the two sides start bit-for-bit identical.
type advisorRig struct {
	topo *cluster.Topology
	fs   *dfs.FileSystem
	sets []*dfs.File
}

func buildAdvisorRig(nodes, chunksPer int, seed int64) (*advisorRig, error) {
	topo := cluster.New(nodes, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: seed})
	rig := &advisorRig{topo: topo, fs: fs}
	for d := 0; d < advisorDatasets; d++ {
		f, err := fs.Create(fmt.Sprintf("/set%d", d), float64(chunksPer)*64)
		if err != nil {
			return nil, err
		}
		rig.sets = append(rig.sets, f)
	}
	return rig, nil
}

// advisorRound builds round r of phase p: every node runs one process and
// tasksPerNode*nodes tasks read the hot dataset's chunks round-robin.
func advisorProblem(rig *advisorRig, phase int) (*core.Problem, error) {
	hot := rig.sets[phase%advisorDatasets]
	nodes := rig.topo.NumNodes()
	procs := make([]int, nodes)
	for i := range procs {
		procs[i] = i
	}
	tasks := make([]core.Task, advisorTasksPerNode*nodes)
	for t := range tasks {
		id := hot.Chunks[t%len(hot.Chunks)]
		tasks[t] = core.Task{ID: t, Inputs: []core.Input{{Chunk: id, SizeMB: rig.fs.Chunk(id).SizeMB}}}
	}
	p := &core.Problem{ProcNode: procs, Tasks: tasks, FS: rig.fs}
	return p, p.Validate()
}

// runAdvisorSide drives all phases and rounds over one rig. adv is nil on
// the static side.
func runAdvisorSide(label string, rig *advisorRig, adv *advisor.Advisor, interval float64, seed int64) (AdvisorSide, error) {
	side := AdvisorSide{Label: label}
	round := 0
	for p := 0; p < advisorPhases; p++ {
		for r := 0; r < advisorRounds; r++ {
			prob, err := advisorProblem(rig, p)
			if err != nil {
				return side, err
			}
			res, err := runOn(&workload.Rig{Topo: rig.topo, FS: rig.fs, Prob: prob}, arm{
				label: label,
				plan:  core.SingleData{Seed: seed + int64(round)},
				tweak: func(o *engine.Options) {
					if adv != nil {
						o.Advisor = adv
						o.AdvisorInterval = interval
						o.Replan = true
						o.ReplanSeed = seed + int64(round)
					}
				},
			})
			if err != nil {
				return side, err
			}
			side.RoundLocal = append(side.RoundLocal, res.Local)
			side.MakespanS += res.run.Makespan
			if r == advisorRounds-1 {
				side.SteadyLocal += res.Local
			}
			round++
		}
	}
	side.SteadyLocal /= advisorPhases
	side.StoredMB = rig.fs.TotalStoredMB()
	return side, nil
}

// AdvisorStudy runs the static-vs-advised replication study.
func AdvisorStudy(cfg Config) (*AdvisorResult, error) {
	nodes := cfg.scale(32)
	chunksPer := nodes / 2
	out := &AdvisorResult{
		Nodes:     nodes,
		Datasets:  advisorDatasets,
		ChunksPer: chunksPer,
		Phases:    advisorPhases,
		Rounds:    advisorRounds,
	}

	static, err := buildAdvisorRig(nodes, chunksPer, cfg.Seed)
	if err != nil {
		return nil, err
	}
	out.Static, err = runAdvisorSide("static-3way", static, nil, 0, cfg.Seed)
	if err != nil {
		return nil, err
	}

	advised, err := buildAdvisorRig(nodes, chunksPer, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The decay half-life spans roughly one round of local reads, so a
	// phase's heat is stale within the next phase; the advisor wakes several
	// times per round so mid-round replans can use the new copies.
	readS := advised.topo.UncontendedLocalRead(64)
	halfLife := 2 * float64(advisorTasksPerNode) * readS
	advised.fs.EnableAccessStats(halfLife)
	adv, err := advisor.New(advised.fs, advisor.Options{
		MaxActions: nodes / 2,
	})
	if err != nil {
		return nil, err
	}
	out.BudgetMB = advised.fs.TotalStoredMB()
	out.Advised, err = runAdvisorSide("advised", advised, adv, readS/2, cfg.Seed)
	if err != nil {
		return nil, err
	}

	st := adv.Stats()
	out.Ticks = st.Ticks
	out.ReplicasAdded = st.ReplicasAdded
	out.ReplicasRemoved = st.ReplicasRemoved
	out.SteadyLocalGain = out.Advised.SteadyLocal - out.Static.SteadyLocal
	return out, nil
}

// Render prints the study.
func (r *AdvisorResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — adaptive replication advisor (ROADMAP 2): %d datasets x %d chunks on %d nodes, hotspot shifts over %d phases x %d rounds\n",
		r.Datasets, r.ChunksPer, r.Nodes, r.Phases, r.Rounds)
	row := func(s AdvisorSide) {
		fmt.Fprintf(&b, "  %-12s: steady-state local %5.1f%%  stored %6.0f MB  total makespan %6.1fs  per-round local",
			s.Label, 100*s.SteadyLocal, s.StoredMB, s.MakespanS)
		for _, l := range s.RoundLocal {
			fmt.Fprintf(&b, " %3.0f%%", 100*l)
		}
		b.WriteString("\n")
	}
	row(r.Static)
	row(r.Advised)
	fmt.Fprintf(&b, "  advisor: %d ticks, +%d/-%d replicas within a %.0f MB budget; steady-state locality %+.1f points\n",
		r.Ticks, r.ReplicasAdded, r.ReplicasRemoved, r.BudgetMB, 100*r.SteadyLocalGain)
	return b.String()
}

// BenchKey is the study's key in BENCH_planner.json.
func (r *AdvisorResult) BenchKey() string { return "advisor" }
