package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// referenceMultiData is Algorithm 1 with materialised preference lists: each
// process's index row copied out and stable-sorted by descending co-located
// MB, a cursor per process, and a slice queue. MultiData proposes from the
// index rows in place instead and must choose the same owners.
func referenceMultiData(p *Problem, seed int64) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, m := len(p.Tasks), p.NumProcs()
	quotas := taskQuotas(n, m)
	ix := NewLocalityIndex(p)
	defer ix.Release()
	prefs := make([][]LocalityEdge, m)
	for proc := range prefs {
		prefs[proc] = sortedByMB(ix.ProcEdges(proc))
	}
	owner := make([]int, n)
	for t := range owner {
		owner[t] = -1
	}
	counts, cursor := make([]int, m), make([]int, m)
	var queue []int
	inQueue := make([]bool, m)
	push := func(proc int) {
		if !inQueue[proc] && counts[proc] < quotas[proc] && cursor[proc] < len(prefs[proc]) {
			queue = append(queue, proc)
			inQueue[proc] = true
		}
	}
	for proc := 0; proc < m; proc++ {
		push(proc)
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		inQueue[k] = false
		for cursor[k] < len(prefs[k]) && counts[k] < quotas[k] {
			e := prefs[k][cursor[k]]
			cursor[k]++
			cur := owner[e.Task]
			if cur == -1 {
				owner[e.Task] = k
				counts[k]++
				continue
			}
			if ix.CoLocatedMB(cur, e.Task) < e.MB {
				owner[e.Task] = k
				counts[k]++
				counts[cur]--
				push(cur)
			}
		}
		push(k)
	}
	return finishAssignment(p, ix, &answerBuf{owner: owner}, quotas, nil, 0, seed), nil
}

// sortedByMB returns a copy of row stable-sorted by descending MB.
func sortedByMB(row []LocalityEdge) []LocalityEdge {
	out := slices.Clone(row)
	slices.SortStableFunc(out, func(a, b LocalityEdge) int { return cmp.Compare(b.MB, a.MB) })
	return out
}

// checkMatchesReference fails t unless md plans p with the same owners, and
// the same matched/repaired split, as referenceMultiData.
func checkMatchesReference(t *testing.T, name string, md MultiData, p *Problem) {
	t.Helper()
	a, err := md.Assign(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref, err := referenceMultiData(p, md.Seed)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if !slices.Equal(a.Owner, ref.Owner) || !slices.Equal(a.Matched, ref.Matched) {
		t.Fatalf("%s: owners %v (matched %v), sorted-preference reference %v (matched %v)", name, a.Owner, a.Matched, ref.Owner, ref.Matched)
	}
}

// TestPrefHeapReplaysStableSort: popping a heapified Task-ascending row
// yields exactly the row stable-sorted by descending MB — on empty, one- and
// two-edge rows, all-equal rows and rows drawn from four MB values.
func TestPrefHeapReplaysStableSort(t *testing.T) {
	rows := [][]LocalityEdge{
		nil,
		{{Proc: 0, Task: 3, MB: 10}},
		{{Proc: 0, Task: 1, MB: 10}, {Proc: 0, Task: 2, MB: 20}},
		{{Proc: 0, Task: 1, MB: 20}, {Proc: 0, Task: 2, MB: 10}},
		{{Proc: 0, Task: 1, MB: 10}, {Proc: 0, Task: 2, MB: 10}},
	}
	for _, length := range []int{3, 17, 64} {
		row := make([]LocalityEdge, length)
		for i := range row {
			row[i] = LocalityEdge{Task: 2 * i, MB: 64}
		}
		rows = append(rows, row)
	}
	rng := rand.New(rand.NewSource(31))
	mbs := []float64{10, 20, 30, 60}
	for i := 0; i < 200; i++ {
		row, task := make([]LocalityEdge, rng.Intn(300)), 0
		for k := range row {
			task += 1 + rng.Intn(3)
			row[k] = LocalityEdge{Task: task, MB: mbs[rng.Intn(len(mbs))]}
		}
		rows = append(rows, row)
	}
	for i, row := range rows {
		want := sortedByMB(row)
		h := slices.Clone(row)
		heapifyPrefs(h)
		var got []LocalityEdge
		for left := len(h); left > 0; left-- {
			got = append(got, popPref(h[:left]))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("row %d: heap pops %v, stable sort %v", i, got, want)
		}
	}
}

// TestMultiDataMatchesSortedPreferences holds Algorithm 1 to the
// sorted-preference reference on the golden multi-input problems and a
// paper-scale one.
func TestMultiDataMatchesSortedPreferences(t *testing.T) {
	for name, p := range map[string]*Problem{
		"golden-multi":        goldenMultiProblem(t),
		"golden-racked-multi": goldenRackedMultiProblem(t),
		"paper-multi":         benchSpec(256, 2560, []float64{30, 20, 10}, 5).csrBacked(),
	} {
		checkMatchesReference(t, name, MultiData{Seed: 3}, p)
	}
}
