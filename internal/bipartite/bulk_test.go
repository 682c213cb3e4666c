package bipartite

import (
	"math/rand"
	"testing"
)

// TestNewGraphFromSortedMatchesAddEdge asserts the bulk constructor and the
// incremental AddEdge path produce indistinguishable graphs: same edge set,
// same adjacency order, same weights — on random sparse graphs of varying
// shape.
func TestNewGraphFromSortedMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		numP := 1 + rng.Intn(40)
		numF := 1 + rng.Intn(120)
		byP := make([][]Edge, numP)
		inc := NewGraph(numP, numF)
		for p := 0; p < numP; p++ {
			// Random ascending subset of files for this process.
			for f := 0; f < numF; f++ {
				if rng.Intn(4) != 0 {
					continue
				}
				w := int64(1 + rng.Intn(1000))
				byP[p] = append(byP[p], Edge{P: p, F: f, Weight: w})
				inc.AddEdge(p, f, w)
			}
		}
		bulk := NewGraphFromSorted(numP, numF, byP)

		if bulk.NumEdges() != inc.NumEdges() {
			t.Fatalf("trial %d: %d edges, want %d", trial, bulk.NumEdges(), inc.NumEdges())
		}
		for p := 0; p < numP; p++ {
			a, b := bulk.EdgesOfP(p), inc.EdgesOfP(p)
			if len(a) != len(b) {
				t.Fatalf("trial %d proc %d: %d edges, want %d", trial, p, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d proc %d edge %d: %+v, want %+v", trial, p, i, a[i], b[i])
				}
			}
		}
	}
}

// TestNewGraphFromSortedValidation pins the panic contract on malformed
// adjacency input.
func TestNewGraphFromSortedValidation(t *testing.T) {
	cases := []struct {
		name string
		numP int
		numF int
		byP  [][]Edge
	}{
		{"list count mismatch", 2, 2, [][]Edge{{}}},
		{"wrong P field", 2, 2, [][]Edge{{{P: 1, F: 0, Weight: 1}}, {}}},
		{"file out of range", 1, 2, [][]Edge{{{P: 0, F: 2, Weight: 1}}}},
		{"negative file", 1, 2, [][]Edge{{{P: 0, F: -1, Weight: 1}}}},
		{"zero weight", 1, 1, [][]Edge{{{P: 0, F: 0, Weight: 0}}}},
		{"unsorted files", 1, 3, [][]Edge{{{P: 0, F: 2, Weight: 1}, {P: 0, F: 1, Weight: 1}}}},
		{"duplicate file", 1, 3, [][]Edge{{{P: 0, F: 1, Weight: 1}, {P: 0, F: 1, Weight: 1}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on malformed input")
				}
			}()
			NewGraphFromSorted(c.numP, c.numF, c.byP)
		})
	}
}
