package core

import (
	"fmt"
	"sort"

	"opass/internal/dfs"
)

// dfsChunkID converts Migration's compact int back to the dfs ID type.
func dfsChunkID(v int) dfs.ChunkID { return dfs.ChunkID(v) }

// This file implements the data redistribution extension. §V-C1 of the
// paper observes that when tasks have many scattered inputs "our method may
// not work as well and data reconstruction/redistribution may be needed",
// citing MRAP, and declares it beyond the paper's scope. The planner below
// closes that gap: given an assignment, it relocates replicas so that the
// assignment's remote inputs become local, and reports the one-time
// migration cost so callers can weigh it against the recurring remote-read
// traffic it eliminates (worthwhile exactly when the dataset is read many
// times, the iterative-analysis scenario from the paper's introduction).

// Migration describes one planned replica move.
type Migration struct {
	Chunk  int // dfs.ChunkID, kept as int for compact printing
	From   int
	To     int
	SizeMB float64
}

// RedistributionPlan is the outcome of PlanRedistribution.
type RedistributionPlan struct {
	// Migrations lists the replica moves, in task order.
	Migrations []Migration
	// MovedMB is the total migration traffic.
	MovedMB float64
	// RemoteMBPerRun is the remote traffic the assignment incurs per
	// execution before redistribution: every input byte without a replica
	// on its owner's node.
	RemoteMBPerRun float64
	// ResidualRemoteMBPerRun is the remote traffic that remains per
	// execution after the plan is applied. It is non-zero whenever a chunk
	// shared by tasks on different nodes can only be re-homed for one of
	// them, or a donated replica was the copy a co-located task was
	// reading — so it can be non-zero even for all-single-input workloads.
	ResidualRemoteMBPerRun float64
	// BreakEvenRuns is how many executions amortize the migration:
	// MovedMB divided by the per-run traffic the plan actually saves,
	// RemoteMBPerRun - ResidualRemoteMBPerRun (0 when nothing is saved).
	BreakEvenRuns float64
}

// PlanRedistribution computes the replica moves that make assignment a
// fully local on problem p, whose placement fs holds. For every input chunk
// not hosted on its owner's node, one replica is relocated there — taken
// from the replica holder currently hosting the most data, so the move also
// reduces storage skew. It enumerates the store (live nodes, stored bytes),
// which the planners' read-only Placement view does not offer, so it takes
// the file system itself. The file system is not modified; use Apply.
func PlanRedistribution(fs *dfs.FileSystem, p *Problem, a *Assignment) (*RedistributionPlan, error) {
	if err := a.Validate(p); err != nil {
		return nil, err
	}
	plan := &RedistributionPlan{}
	// Track hypothetical placement changes so multiple tasks sharing a
	// chunk don't double-move it.
	moved := map[int]Migration{} // chunk -> its planned move
	live := fs.LiveNodes()
	// Live node IDs are not contiguous after a node removal, so donor
	// loads must be seeded per live ID — counting 0..len(LiveNodes()) would
	// read high-ID holders as empty and mis-rank donors.
	hostedMB := make(map[int]float64, len(live))
	for _, n := range live {
		hostedMB[n] = fs.StoredMB(n)
	}
	for t, owner := range a.Owner {
		node := p.ProcNode[owner]
		for _, in := range p.Tasks[t].Inputs {
			c := fs.Chunk(in.Chunk)
			if c.HostedOn(node) {
				continue
			}
			if _, ok := moved[int(in.Chunk)]; ok {
				// Already being re-homed for another task; only one home.
				// If that home is a different node this input stays
				// remote — the residual pass below accounts for it.
				continue
			}
			// Donate from the most loaded current holder.
			src := c.Replicas[0]
			for _, r := range c.Replicas {
				if hostedMB[r] > hostedMB[src] {
					src = r
				}
			}
			m := Migration{Chunk: int(in.Chunk), From: src, To: node, SizeMB: c.SizeMB}
			plan.Migrations = append(plan.Migrations, m)
			plan.MovedMB += c.SizeMB
			moved[int(in.Chunk)] = m
			hostedMB[src] -= c.SizeMB
			hostedMB[node] += c.SizeMB
		}
	}
	sort.Slice(plan.Migrations, func(i, j int) bool { return plan.Migrations[i].Chunk < plan.Migrations[j].Chunk })
	// Accounting pass over the final placement: RemoteMBPerRun is the
	// pre-plan remote traffic, ResidualRemoteMBPerRun whatever the moves
	// could not make local (shared chunks homed elsewhere, and replicas
	// donated away from under a co-located task).
	for t, owner := range a.Owner {
		node := p.ProcNode[owner]
		for _, in := range p.Tasks[t].Inputs {
			c := fs.Chunk(in.Chunk)
			if !c.HostedOn(node) {
				plan.RemoteMBPerRun += in.SizeMB
			}
			if !hostedAfter(c, moved, node) {
				plan.ResidualRemoteMBPerRun += in.SizeMB
			}
		}
	}
	if saved := plan.RemoteMBPerRun - plan.ResidualRemoteMBPerRun; saved > 0 {
		plan.BreakEvenRuns = plan.MovedMB / saved
	}
	return plan, nil
}

// hostedAfter reports whether chunk c has a replica on node once the
// planned moves are applied.
func hostedAfter(c *dfs.Chunk, moved map[int]Migration, node int) bool {
	if m, ok := moved[int(c.ID)]; ok {
		if m.To == node {
			return true
		}
		if m.From == node {
			return false
		}
	}
	return c.HostedOn(node)
}

// Apply executes the plan against the file system it was computed over. It
// returns an error on the first migration that fails (earlier moves stay
// applied, as a real migration tool's partial progress would).
func (plan *RedistributionPlan) Apply(fs *dfs.FileSystem) error {
	for _, m := range plan.Migrations {
		if err := fs.MoveReplica(dfsChunkID(m.Chunk), m.From, m.To); err != nil {
			return fmt.Errorf("core: applying migration of chunk %d: %w", m.Chunk, err)
		}
	}
	return nil
}
