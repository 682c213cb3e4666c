package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"opass/internal/dfs"
)

// layoutSpec is a problem written down as plain rows, so a test can build it
// over either placement view: chunk i is sizes[i] MB on the nodes rows[i]
// (distinct, any order). Tasks name chunks by index.
type layoutSpec struct {
	nodes    int
	procNode []int
	nodeRack []int
	sizes    []float64
	rows     [][]int
	tasks    []Task
}

// specOf reads the layout back out of a dfs-backed problem, every chunk of
// its store, so chunk ids carry over.
func specOf(p *Problem) layoutSpec {
	fs := p.FS.(*dfs.FileSystem)
	s := layoutSpec{nodes: fs.View().NumNodes(), procNode: p.ProcNode, nodeRack: p.NodeRack, tasks: p.Tasks}
	for id := 0; id < fs.NumChunks(); id++ {
		c := fs.Chunk(dfs.ChunkID(id))
		s.sizes, s.rows = append(s.sizes, c.SizeMB), append(s.rows, c.Replicas)
	}
	return s
}

// benchSpec is the shape bench/ posts: one process per node, every task with
// the same input sizes, three distinct uniform replicas per input.
func benchSpec(nodes, tasks int, inputs []float64, seed int64) layoutSpec {
	rng := rand.New(rand.NewSource(seed))
	s := layoutSpec{nodes: nodes, procNode: make([]int, nodes)}
	for i := range s.procNode {
		s.procNode[i] = i
	}
	for t := 0; t < tasks; t++ {
		task := Task{ID: t}
		for _, size := range inputs {
			task.Inputs = append(task.Inputs, Input{Chunk: dfs.ChunkID(len(s.sizes)), SizeMB: size})
			s.sizes, s.rows = append(s.sizes, size), append(s.rows, rng.Perm(nodes)[:3])
		}
		s.tasks = append(s.tasks, task)
	}
	return s
}

// randomSpec is a small problem with everything the planners branch on:
// several ranks per node, a multi-rack map, unequal chunk sizes, inputs that
// read part of a chunk, chunks shared between tasks, 1–3 replicas.
func randomSpec(rng *rand.Rand) layoutSpec {
	nodes := 4 + rng.Intn(9)
	s := layoutSpec{nodes: nodes, nodeRack: make([]int, nodes)}
	for i := range s.nodeRack {
		s.nodeRack[i] = i % 3
	}
	for i, procs := 0, nodes+rng.Intn(nodes); i < procs; i++ {
		s.procNode = append(s.procNode, rng.Intn(nodes))
	}
	chunks := 8 + rng.Intn(40)
	for c := 0; c < chunks; c++ {
		s.sizes = append(s.sizes, float64(8+8*rng.Intn(8))+0.5*float64(rng.Intn(2)))
		s.rows = append(s.rows, rng.Perm(nodes)[:1+rng.Intn(3)])
	}
	multi := rng.Intn(2) == 0
	for t, tasks := 0, chunks+rng.Intn(chunks); t < tasks; t++ {
		task := Task{ID: t}
		inputs := 1
		if multi {
			inputs += rng.Intn(3)
		}
		for i := 0; i < inputs; i++ {
			c := rng.Intn(chunks)
			task.Inputs = append(task.Inputs, Input{Chunk: dfs.ChunkID(c), SizeMB: s.sizes[c] / float64(1+rng.Intn(2))})
		}
		s.tasks = append(s.tasks, task)
	}
	return s
}

// multi reports whether any task reads several inputs.
func (s layoutSpec) multi() bool {
	return slices.ContainsFunc(s.tasks, func(t Task) bool { return len(t.Inputs) > 1 })
}

// dfsBacked builds the spec over a fresh file system written by one bulk
// create — the mirror the service used to build for every request.
func (s layoutSpec) dfsBacked(t testing.TB) *Problem {
	t.Helper()
	fs := dfs.New(view{s.nodes}, dfs.Config{Replication: 1})
	if _, err := fs.CreateChunksReplicated("/layout", s.sizes, s.rows); err != nil {
		t.Fatal(err)
	}
	return &Problem{ProcNode: s.procNode, NodeRack: s.nodeRack, Tasks: s.tasks, FS: fs}
}

// csrBacked builds the spec over a Layout, rows sorted as Layout requires.
func (s layoutSpec) csrBacked() *Problem {
	l := &Layout{RepOff: []int{0}}
	for _, row := range s.rows {
		l.Reps = append(l.Reps, row...)
		slices.Sort(l.Reps[l.RepOff[len(l.RepOff)-1]:])
		l.RepOff = append(l.RepOff, len(l.Reps))
	}
	return &Problem{ProcNode: s.procNode, NodeRack: s.nodeRack, Tasks: s.tasks, FS: l}
}

// indexEdges flattens every row of a locality index, both tiers, each row
// Proc-ascending.
func indexEdges(p *Problem) (out []LocalityEdge) {
	ix := NewLocalityIndex(p)
	defer ix.Release()
	for t := range p.Tasks {
		out = append(out, ix.taskEdges(t)...)
		out = append(out, LocalityEdge{Proc: -1})
		out = append(out, procOrder(ix.TaskRackEdges(t))...) // rack rows promise no order
	}
	for proc := range p.ProcNode {
		out = append(out, LocalityEdge{Proc: -2})
		out = append(out, ix.ProcEdges(proc)...)
	}
	return out
}

// TestPlacementViewParity: a layout read through a Layout and through the
// dfs.FileSystem built from the same rows is one problem to everything in
// this package — same canonical bytes, same index edges on both tiers, and
// the same plan from every strategy.
func TestPlacementViewParity(t *testing.T) {
	specs := map[string]layoutSpec{
		"golden/multi":        specOf(goldenMultiProblem(t)),
		"golden/racked-multi": specOf(goldenRackedMultiProblem(t)),
		"bench/paper-single":  benchSpec(256, 2560, []float64{64}, 1),
		"bench/paper-multi":   benchSpec(256, 2560, []float64{30, 20, 10}, 2),
		"bench/fleet-bulk":    benchSpec(256, 25600, []float64{64}, 3),
	}
	for name, p := range goldenSingleProblems(t) {
		specs["golden/"+name] = specOf(p)
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 40; i++ {
		specs[fmt.Sprintf("random/%d", i)] = randomSpec(rng)
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			viaDFS, viaCSR := spec.dfsBacked(t), spec.csrBacked()
			if err := viaCSR.Validate(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(viaDFS.AppendCanonical(nil), viaCSR.AppendCanonical(nil)) {
				t.Error("canonical encodings differ")
			}
			if !slices.Equal(indexEdges(viaDFS), indexEdges(viaCSR)) {
				t.Error("locality index edges differ")
			}

			weights := make([]float64, len(spec.procNode))
			for i := range weights {
				weights[i] = []float64{1, 0.5, 2.25, 0.75}[i%4]
			}
			planners := []Assigner{
				SingleData{Seed: 5, Weights: weights},
				MultiExact{Seed: 5, Weights: weights},
			}
			for _, strategy := range []string{"opass", "rank", "random"} {
				as, err := AssignerFor(strategy, 5, spec.multi())
				if err != nil {
					t.Fatal(err)
				}
				planners = append(planners, as)
			}
			for _, as := range planners {
				if _, single := as.(SingleData); single && spec.multi() {
					continue
				}
				a, errA := as.Assign(viaDFS)
				b, errB := as.Assign(viaCSR)
				if errA != nil || errB != nil {
					t.Fatalf("%s: %v / %v", as.Name(), errA, errB)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s plans differently over the two views", as.Name())
				}
			}
		})
	}
}

// TestLayoutRows: a row handed out by a Layout cannot be grown into the next
// one, and an id the layout does not hold panics as dfs.FileSystem.Chunk does.
func TestLayoutRows(t *testing.T) {
	l := &Layout{RepOff: []int{0, 2, 3, 5}, Reps: []int{0, 3, 1, 2, 4}}
	for id, want := range [][]int{{0, 3}, {1}, {2, 4}} {
		row := l.Replicas(dfs.ChunkID(id))
		if !slices.Equal(row, want) || cap(row) != len(row) {
			t.Fatalf("chunk %d: row %v cap %d, want %v capped", id, row, cap(row), want)
		}
		_ = append(row, 99)
	}
	if want := []int{0, 3, 1, 2, 4}; !slices.Equal(l.Reps, want) {
		t.Fatalf("appending to a row wrote through: %v", l.Reps)
	}
	for _, id := range []dfs.ChunkID{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Replicas(%d) did not panic", id)
				}
			}()
			l.Replicas(id)
		}()
	}
}

// fuzzSpec reads a small problem off the front of data (which it consumes),
// zero-extending a short input: up to 6 nodes, 4 processes, 6 chunks of 1–3
// replicas and three possible sizes, 5 tasks of up to 3 inputs, and a rack
// map that is absent, single-rack or multi-rack.
func fuzzSpec(data *[]byte) layoutSpec {
	next := func(n int) int {
		if len(*data) == 0 {
			return 0
		}
		v := int((*data)[0]) % n
		*data = (*data)[1:]
		return v
	}
	sizeTable := []float64{64, 2.5, 1}
	s := layoutSpec{nodes: 1 + next(6)}
	for i, procs := 0, 1+next(4); i < procs; i++ {
		s.procNode = append(s.procNode, next(s.nodes))
	}
	if racks := next(3); racks > 0 {
		for i := 0; i < s.nodes; i++ {
			s.nodeRack = append(s.nodeRack, next(racks))
		}
	}
	for c, chunks := 0, 1+next(6); c < chunks; c++ {
		row := []int{next(s.nodes)}
		for mask := next(1 << s.nodes); mask != 0; mask &= mask - 1 {
			if node := bits.TrailingZeros(uint(mask)); !slices.Contains(row, node) && len(row) < 3 {
				row = append(row, node)
			}
		}
		s.sizes, s.rows = append(s.sizes, sizeTable[next(3)]), append(s.rows, row)
	}
	for t, tasks := 0, 1+next(5); t < tasks; t++ {
		task := Task{ID: t}
		for i, inputs := 0, 1+next(3); i < inputs; i++ {
			task.Inputs = append(task.Inputs, Input{Chunk: dfs.ChunkID(next(len(s.sizes))), SizeMB: sizeTable[next(3)]})
		}
		s.tasks = append(s.tasks, task)
	}
	return s
}

// sameProblem is structural equality over what a plan depends on: process
// placement, every task's inputs, the replica set of each chunk an input
// names, and the rack map when it spans more than one rack.
func sameProblem(a, b *Problem) bool {
	if !slices.Equal(a.ProcNode, b.ProcNode) || len(a.Tasks) != len(b.Tasks) || a.RackTiered() != b.RackTiered() {
		return false
	}
	if a.RackTiered() && !slices.Equal(a.NodeRack, b.NodeRack) {
		return false
	}
	for t := range a.Tasks {
		if !slices.Equal(a.Tasks[t].Inputs, b.Tasks[t].Inputs) {
			return false
		}
		for _, in := range a.Tasks[t].Inputs {
			if !slices.Equal(a.FS.Replicas(in.Chunk), b.FS.Replicas(in.Chunk)) {
				return false
			}
		}
	}
	return true
}

// FuzzCanonical holds the fingerprint's input to its contract on arbitrary
// pairs of small problems: equal canonical bytes exactly when the problems
// are structurally equal (a collision would serve one problem's cached plan
// for another), the same bytes whichever placement view a layout is read
// through, and exactly as many bytes as canonicalLen sized the buffer for.
func FuzzCanonical(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 1, 2, 0, 1, 1, 2, 5, 0, 1, 3, 2, 2, 1, 0, 0, 1, 1, 2})
	f.Add([]byte{5, 3, 1, 2, 3, 2, 0, 1, 0, 1, 0, 3, 1, 7, 0, 2, 9, 1, 4, 30, 2, 2, 1, 0, 0, 2, 1, 1, 0, 0, 2})
	// The same problem twice, then one differing only in its last input's size.
	twin := []byte{2, 1, 0, 0, 1, 1, 3, 0, 0, 0, 0, 0}
	f.Add(append(slices.Clone(twin), twin...))
	f.Add(append(slices.Clone(twin), append(slices.Clone(twin[:len(twin)-1]), 1)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var probs [2]*Problem
		var canon [2][]byte
		for i := range probs {
			spec := fuzzSpec(&data)
			probs[i] = spec.csrBacked()
			if err := probs[i].Validate(); err != nil {
				t.Fatal(err)
			}
			canon[i] = probs[i].AppendCanonical(nil)
			if len(canon[i]) != probs[i].canonicalLen() {
				t.Fatalf("encoded %d bytes, canonicalLen says %d", len(canon[i]), probs[i].canonicalLen())
			}
			if !bytes.Equal(canon[i], spec.dfsBacked(t).AppendCanonical(nil)) {
				t.Fatalf("problem %d encodes differently over a dfs.FileSystem and a Layout: %+v", i, spec)
			}
		}
		if equal, same := bytes.Equal(canon[0], canon[1]), sameProblem(probs[0], probs[1]); equal != same {
			t.Fatalf("canonical bytes equal = %v, problems structurally equal = %v", equal, same)
		}
	})
}
