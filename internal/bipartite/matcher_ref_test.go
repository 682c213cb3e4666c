package bipartite

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// matchRows runs MatchRows into a fresh owner vector, returning no owner
// with an error, as referenceMatchRows does.
func matchRows(ctx context.Context, rows *Rows, quota []int) (owner []int, size int, err error) {
	owner = make([]int, len(rows.Off)-1)
	if size, err = MatchRows(ctx, rows, quota, owner); err != nil {
		return nil, 0, err
	}
	return owner, size, nil
}

// referenceMatchRows is MatchRows with its first phase layered like every
// other: a BFS from all the files, then one depth-first search per file.
// MatchRows replaces that phase with a greedy pass (matcher.greedy) that
// must leave the same owners, slots and free list, so the two return the
// same owner vector on every input. It shares the later phases' layer,
// augment and shift, and takes a fresh matcher instead of a pooled one.
func referenceMatchRows(ctx context.Context, rows *Rows, quota []int) (owner []int, size int, err error) {
	numP, numF := len(quota), len(rows.Off)-1
	m := &matcher{rows: rows, owner: make([]int, numF)}
	m.off = make([]int, numP+1)
	for _, e := range rows.Edges[rows.Off[0]:rows.Off[numF]] {
		m.off[e.Proc+1]++
	}
	for p, q := range quota {
		m.off[p+1] = m.off[p] + min(q, m.off[p+1])
	}
	m.slots = make([]int32, m.off[numP])
	m.cnt = make([]int32, numP)
	m.level, m.itP = make([]int32, numP), make([]int32, numP)
	m.itF, m.free = make([]int32, numF), make([]int32, numF)
	for f := range m.owner {
		m.owner[f] = -1
		m.free[f] = int32(f)
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if !m.layer() {
			return m.owner, size, nil
		}
		clear(m.itP)
		clear(m.itF)
		unmatched := m.free[:0]
		for _, f := range m.free {
			if m.augment(f) {
				size++
			} else {
				unmatched = append(unmatched, f)
			}
		}
		m.free = unmatched
	}
}

// rowsFrom builds file-side rows from per-file process lists, each
// distinct and ascending.
func rowsFrom(files [][]int) *Rows {
	rows := &Rows{Off: []int{0}}
	for f, procs := range files {
		for _, p := range procs {
			rows.Edges = append(rows.Edges, LocalityEdge{Proc: p, Task: f, MB: 1})
		}
		rows.Off = append(rows.Off, len(rows.Edges))
	}
	return rows
}

// sameAsReference fails t unless MatchRows and referenceMatchRows return
// the same owners and size on rows under quota.
func sameAsReference(t *testing.T, name string, rows *Rows, quota []int) {
	t.Helper()
	owner, size, err := matchRows(context.Background(), rows, quota)
	if err != nil {
		t.Fatal(err)
	}
	want, wantSize, err := referenceMatchRows(context.Background(), rows, quota)
	if err != nil {
		t.Fatal(err)
	}
	if size != wantSize || !slices.Equal(owner, want) {
		t.Fatalf("%s, quota %v: owners %v (size %d), layered first phase %v (size %d)", name, quota, owner, size, want, wantSize)
	}
}

// TestMatchRowsGreedyPhaseMatchesLayered holds the greedy first phase to
// the layered one on the shapes where their bookkeeping could part: zero
// quotas, quotas above a process's degree, empty rows, one process, and
// graphs that need later phases to displace what the first one placed.
func TestMatchRowsGreedyPhaseMatchesLayered(t *testing.T) {
	chain, chainQuota := phasedChain()
	for _, c := range []struct {
		name  string
		rows  *Rows
		quota []int
	}{
		{"no files", rowsFrom(nil), []int{1, 1}},
		{"no processes", rowsFrom([][]int{{}, {}}), nil},
		{"all rows empty", rowsFrom([][]int{{}, {}, {}}), []int{1, 1}},
		{"some rows empty", rowsFrom([][]int{{}, {0, 1}, {}, {1}, {0}}), []int{1, 1}},
		{"zero quotas", rowsFrom([][]int{{0, 1}, {1}, {0}}), []int{0, 0}},
		{"one zero quota", rowsFrom([][]int{{0, 1}, {0, 1}, {0}}), []int{0, 3}},
		{"quota above degree", rowsFrom([][]int{{0}, {0, 1}, {1}}), []int{math.MaxInt, 7}},
		{"single process", rowsFrom([][]int{{0}, {0}, {}, {0}}), []int{2}},
		{"single process, zero quota", rowsFrom([][]int{{0}, {0}}), []int{0}},
		{"needs displacement", rowsFrom([][]int{{0, 1}, {0}}), []int{1, 1}},
		{"phased chain", rowsOf(chain), chainQuota},
		{"figure 5", rowsOf(figure5Graph()), []int{2, 2}},
	} {
		sameAsReference(t, c.name, c.rows, c.quota)
	}
	rng := rand.New(rand.NewSource(50))
	for i := 0; i < 500; i++ {
		procs, files := 1+rng.Intn(12), rng.Intn(40)
		rowsOfFiles := make([][]int, files)
		for f := range rowsOfFiles {
			for p := 0; p < procs; p++ {
				if rng.Intn(4) == 0 {
					rowsOfFiles[f] = append(rowsOfFiles[f], p)
				}
			}
		}
		quota := make([]int, procs)
		for p := range quota {
			quota[p] = rng.Intn(5)
		}
		sameAsReference(t, "random", rowsFrom(rowsOfFiles), quota)
	}
}

// cancelledCtx is cancelled from its first Err call on, and counts them.
type cancelledCtx struct {
	context.Context
	polls int
}

func (c *cancelledCtx) Err() error {
	c.polls++
	return context.Canceled
}

// TestMatchRowsCancelledBeforeFirstPhase: a context cancelled on entry is
// seen at the first poll, before the greedy phase places any file.
func TestMatchRowsCancelledBeforeFirstPhase(t *testing.T) {
	ctx := &cancelledCtx{Context: context.Background()}
	owner, size, err := matchRows(ctx, rowsOf(figure5Graph()), []int{2, 2})
	if owner != nil || size != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %d, %v), want (nil, 0, context.Canceled)", owner, size, err)
	}
	if ctx.polls != 1 {
		t.Fatalf("ctx polled %d times, want 1: the matcher must stop at its first poll", ctx.polls)
	}
}
