package experiments

import (
	"fmt"
	"strings"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/workload"
)

// RackRow is one cell of the rack-topology study.
type RackRow struct {
	Placement string  `json:"placement"`
	Strategy  string  `json:"strategy"`
	Makespan  float64 `json:"makespan"`
	AvgIO     float64 `json:"avg_io"`
	Local     float64 `json:"local"`
	// CrossRack is the fraction of bytes that crossed the oversubscribed
	// rack uplinks.
	CrossRack float64 `json:"cross_rack"`
}

// RackSweepRow is one arm of the makespan-vs-oversubscription sweep: a
// single matcher (rack-oblivious or rack-tiered) run at one uplink ratio
// over a placement identical to its counterpart's.
type RackSweepRow struct {
	// Ratio is the rack oversubscription (aggregate NIC : uplink), so 1
	// means a non-blocking fabric and 8 a heavily constrained one.
	Ratio    float64 `json:"ratio"`
	Matcher  string  `json:"matcher"`
	Makespan float64 `json:"makespan"`
	Local    float64 `json:"local"`
	// RackLocalMB / CrossRackMB split the remote bytes by rack boundary
	// (engine accounting; local reads count toward neither).
	RackLocalMB float64 `json:"rack_local_mb"`
	CrossRackMB float64 `json:"cross_rack_mb"`
}

// RackStudyResult holds the oversubscribed-fabric experiment.
type RackStudyResult struct {
	Nodes int `json:"nodes"`
	Racks int `json:"racks"`
	// UplinkMBps is rack 0's uplink bandwidth at the grid's 4:1
	// oversubscription (racks may differ slightly when nodes % racks != 0).
	UplinkMBps float64        `json:"uplink_mbps"`
	Rows       []RackRow      `json:"rows"`
	Sweep      []RackSweepRow `json:"sweep"`
}

// RackTopology extends the paper's single-switch setting to a multi-rack
// fabric with oversubscribed uplinks. The 4:1 grid shows two findings:
// rack-aware placement does NOT help the locality-oblivious baseline's
// reads — by concentrating replicas in two racks it makes a random reader's
// rack hold a copy less often than fully random placement does (the policy
// optimizes writes and fault domains, not reads) — while Opass makes the
// fabric question moot: everything is node-local and the uplinks sit idle.
//
// The sweep then isolates the graded locality tier: at each
// oversubscription ratio the rack-oblivious and rack-tiered SingleData
// matchers plan over byte-identical placements of unreplicated data (where
// full node-local matching is impossible), and the engine's rack byte split
// shows how much traffic the tier keeps off the uplinks.
func RackTopology(cfg Config) (*RackStudyResult, error) {
	nodes := cfg.scale(64)
	racks := 4
	if nodes < 8 {
		racks = 2
	}

	out := &RackStudyResult{Nodes: nodes, Racks: racks}
	for _, c := range []struct {
		placementName string
		placement     dfs.Placement
		assigner      core.Assigner
	}{
		{"random", dfs.RandomPlacement{}, core.RankStatic{}},
		{"rack-aware", dfs.RackAwarePlacement{Writer: -1}, core.RankStatic{}},
		{"random", dfs.RandomPlacement{}, core.SingleData{Seed: cfg.Seed}},
		{"rack-aware", dfs.RackAwarePlacement{Writer: -1}, core.SingleData{Seed: cfg.Seed}},
	} {
		runs, err := runArms(arm{plan: c.assigner, rig: func() (*workload.Rig, error) {
			topo := cluster.NewRacked(nodes, racks, cluster.Marmot())
			// Size each rack's uplink from its actual member count; with
			// nodes % racks != 0 a uniform nodes/racks sizing both truncates
			// and misattributes bandwidth across the uneven racks.
			topo.SetRackOversubscription(4)
			return datasetRig(topo, dfs.Config{Seed: cfg.Seed, Placement: c.placement}, nil)
		}})
		if err != nil {
			return nil, err
		}
		run, topo := runs[0], runs[0].rig.Topo
		if out.UplinkMBps == 0 {
			for _, n := range topo.RackNodes(0) {
				out.UplinkMBps += topo.NodeProfile(n).NICMBps
			}
			out.UplinkMBps /= 4
		}
		crossFrac := 0.0
		if total := run.Served.Sum; total > 0 {
			crossFrac = run.run.CrossRackMB / total
		}
		out.Rows = append(out.Rows, RackRow{
			Placement: c.placementName,
			Strategy:  run.Strategy,
			Makespan:  run.run.Makespan,
			AvgIO:     run.IO.Mean,
			Local:     run.Local,
			CrossRack: crossFrac,
		})
	}

	// Oversubscription sweep: rack-oblivious vs rack-tiered SingleData over
	// identical placement. The cluster has a storage tier — a quarter of
	// the nodes hold the unreplicated dataset on fast disks behind bonded
	// NICs — so three quarters of the reads are remote by construction and
	// the matchers differ exactly where the tier acts: the overflow either
	// lands on a process in the rack that holds the data (rack-local) or on
	// whichever process is idle (usually across an uplink).
	storage := nodes / 4
	if storage < racks {
		storage = racks
	}
	profiles := make([]cluster.Profile, nodes)
	for i := range profiles {
		profiles[i] = cluster.Marmot()
		if i < storage {
			profiles[i].DiskMBps = 300      // flash storage server
			profiles[i].DiskSeekPenalty = 0 // no head-seek interference
			profiles[i].NICMBps = 234       // 2x bonded NICs
		}
	}
	rows := make([][]int, nodes*10)
	for i := range rows {
		rows[i] = []int{i % storage}
	}
	for _, ratio := range []float64{1, 2, 4, 8} {
		for _, tiered := range []bool{false, true} {
			matcher := "rack-oblivious"
			if tiered {
				matcher = "rack-tiered"
			}
			runs, err := runArms(arm{plan: core.SingleData{Seed: cfg.Seed}, rig: func() (*workload.Rig, error) {
				topo := cluster.NewHeterogeneousRacked(profiles, racks)
				topo.SetRackOversubscription(ratio)
				rig, err := datasetRig(topo, dfs.Config{Seed: cfg.Seed, Replication: 1}, rows)
				if err == nil && tiered {
					rig.Prob.SetNodeRacksFromView(topo)
				}
				return rig, err
			}})
			if err != nil {
				return nil, err
			}
			res := runs[0].run
			out.Sweep = append(out.Sweep, RackSweepRow{
				Ratio:       ratio,
				Matcher:     matcher,
				Makespan:    res.Makespan,
				Local:       res.LocalFraction(),
				RackLocalMB: res.RackLocalMB,
				CrossRackMB: res.CrossRackMB,
			})
		}
	}
	return out, nil
}

// BenchKey is the study's key in BENCH_planner.json.
func (r *RackStudyResult) BenchKey() string { return "racks" }

// Render prints the rack study grid and the oversubscription sweep.
func (r *RackStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — %d racks, 4:1 oversubscribed uplinks (%.0f MB/s each), %d nodes\n",
		r.Racks, r.UplinkMBps, r.Nodes)
	fmt.Fprintf(&b, "%-12s %-12s %10s %10s %8s %11s\n",
		"placement", "assignment", "makespan", "avg I/O", "local", "cross-rack")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-12s %9.1fs %9.2fs %7.1f%% %10.1f%%\n",
			row.Placement, row.Strategy, row.Makespan, row.AvgIO, 100*row.Local, 100*row.CrossRack)
	}
	if len(r.Sweep) > 0 {
		fmt.Fprintf(&b, "\nSweep — rack-oblivious vs rack-tiered matcher, storage tier, identical placement\n")
		fmt.Fprintf(&b, "%6s %-15s %10s %8s %13s %13s\n",
			"ratio", "matcher", "makespan", "local", "rack-local", "cross-rack")
		for _, row := range r.Sweep {
			fmt.Fprintf(&b, "%5.0f: %-15s %9.1fs %7.1f%% %10.0f MB %10.0f MB\n",
				row.Ratio, row.Matcher, row.Makespan, 100*row.Local, row.RackLocalMB, row.CrossRackMB)
		}
	}
	return b.String()
}
