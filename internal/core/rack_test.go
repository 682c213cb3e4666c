package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"opass/internal/dfs"
)

// rackedView groups nodes round-robin into racks, mirroring
// cluster.Topology's rack map without the simulation machinery.
type rackedView struct{ n, racks int }

func (v rackedView) NumNodes() int    { return v.n }
func (v rackedView) RackOf(i int) int { return i % v.racks }

// buildRacked creates a problem over a racked view with one process per
// node. It does NOT set Problem.NodeRack — callers opt into the tier.
func buildRacked(t testing.TB, nodes, racks, chunks, repl int, seed int64) (*Problem, rackedView) {
	t.Helper()
	v := rackedView{nodes, racks}
	fs := dfs.New(v, dfs.Config{Seed: seed, Placement: dfs.RandomPlacement{}, Replication: repl})
	if _, err := fs.Create("/data", float64(chunks)*64); err != nil {
		t.Fatal(err)
	}
	procNode := make([]int, nodes)
	for i := range procNode {
		procNode[i] = i
	}
	p, err := SingleDataProblem(fs, []string{"/data"}, procNode)
	if err != nil {
		t.Fatal(err)
	}
	return p, v
}

func planBytes(t *testing.T, a Assigner, p *Problem) []byte {
	t.Helper()
	asg, err := a.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(asg)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// drainDynamic replays the dynamic scheduler round-robin and returns the
// exact task service order.
func drainDynamic(t *testing.T, p *Problem, a *Assignment) []int {
	t.Helper()
	s, err := NewDynamicScheduler(p, a)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for s.Remaining() > 0 {
		progressed := false
		for proc := range p.ProcNode {
			if task, ok := s.Next(proc); ok {
				order = append(order, task)
				progressed = true
			}
		}
		if !progressed {
			t.Fatal("dynamic scheduler stalled with tasks remaining")
		}
	}
	return order
}

// TestSingleRackTierParity: on a single-rack cluster the graded locality
// tier must be inert. Plans must be byte-identical whether NodeRack is nil
// or an explicit all-zeros map, for every planner and for the dynamic
// scheduler's service order.
func TestSingleRackTierParity(t *testing.T) {
	assigners := []Assigner{
		SingleData{Seed: 7},
		MultiData{Seed: 7},
		RankStatic{},
	}
	for _, asg := range assigners {
		p, _ := buildRacked(t, 16, 1, 160, 3, 7)

		p.NodeRack = nil
		plain := planBytes(t, asg, p)
		encPlain := p.AppendCanonical(nil)

		p.NodeRack = make([]int, 16) // all zeros: one rack, spelled out
		zeroed := planBytes(t, asg, p)
		encZeroed := p.AppendCanonical(nil)

		if !bytes.Equal(plain, zeroed) {
			t.Errorf("%s: plan changed when a single-rack NodeRack map was set", asg.Name())
		}
		if !bytes.Equal(encPlain, encZeroed) {
			t.Errorf("%s: canonical encoding changed when a single-rack NodeRack map was set", asg.Name())
		}
	}

	// Dynamic scheduler: identical service order either way.
	p, _ := buildRacked(t, 16, 1, 160, 3, 7)
	a, err := SingleData{Seed: 7}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	p.NodeRack = nil
	plain := drainDynamic(t, p, a)
	p.NodeRack = make([]int, 16)
	zeroed := drainDynamic(t, p, a)
	if len(plain) != len(zeroed) {
		t.Fatalf("dynamic order lengths differ: %d vs %d", len(plain), len(zeroed))
	}
	for i := range plain {
		if plain[i] != zeroed[i] {
			t.Fatalf("dynamic service order diverges at step %d: task %d vs %d", i, plain[i], zeroed[i])
		}
	}
}

// crossRackTasks counts tasks owned by a process whose rack holds no
// replica of any of the task's inputs.
func crossRackTasks(p *Problem, v rackedView, owner []int) int {
	cross := 0
	for ti, task := range p.Tasks {
		rack := v.RackOf(p.ProcNode[owner[ti]])
		inRack := false
		for _, in := range task.Inputs {
			for _, rep := range p.FS.Replicas(in.Chunk) {
				if v.RackOf(rep) == rack {
					inRack = true
				}
			}
		}
		if !inRack {
			cross++
		}
	}
	return cross
}

// TestRackTierSteersUnmatchedTasks: with unreplicated data some tasks
// cannot be matched node-locally (per-node chunk counts overflow the
// quota). The tier must steer that overflow into racks holding the data —
// strictly fewer cross-rack owners than the oblivious plan — without
// touching the node-local optimum the solver produced.
func TestRackTierSteersUnmatchedTasks(t *testing.T) {
	for _, asg := range []Assigner{
		SingleData{Seed: 3},
		MultiData{Seed: 3},
	} {
		p, v := buildRacked(t, 16, 4, 160, 1, 3)

		p.NodeRack = nil
		plain, err := asg.Assign(p)
		if err != nil {
			t.Fatal(err)
		}

		p.NodeRack = make([]int, 16)
		for i := range p.NodeRack {
			p.NodeRack[i] = v.RackOf(i)
		}
		tiered, err := asg.Assign(p)
		if err != nil {
			t.Fatal(err)
		}

		if plain.PlannedLocalMB != tiered.PlannedLocalMB {
			t.Errorf("%s: tier changed the node-local data volume: %.0f MB vs %.0f MB",
				asg.Name(), plain.PlannedLocalMB, tiered.PlannedLocalMB)
		}
		before := crossRackTasks(p, v, plain.Owner)
		after := crossRackTasks(p, v, tiered.Owner)
		if before == 0 {
			t.Fatalf("%s: oblivious plan has no cross-rack tasks; scenario exercises nothing", asg.Name())
		}
		if after >= before {
			t.Errorf("%s: tier did not reduce cross-rack owners: %d -> %d", asg.Name(), before, after)
		}
	}
}

// TestCanonicalEncodingRackSuffix: a multi-rack NodeRack map must change
// the problem's canonical encoding (plan caches keyed on it must not alias
// tiered and oblivious plans), while nil and single-rack maps share one.
func TestCanonicalEncodingRackSuffix(t *testing.T) {
	p, v := buildRacked(t, 8, 2, 40, 3, 1)
	p.NodeRack = nil
	plain := p.AppendCanonical(nil)
	p.NodeRack = make([]int, 8)
	for i := range p.NodeRack {
		p.NodeRack[i] = v.RackOf(i)
	}
	tiered := p.AppendCanonical(nil)
	if bytes.Equal(plain, tiered) {
		t.Fatal("multi-rack NodeRack map did not change the canonical encoding")
	}
}
