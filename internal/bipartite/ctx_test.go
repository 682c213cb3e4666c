package bipartite

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// figure5Graph is the two-process four-file fixture used across the
// matching tests.
func figure5Graph() *Graph {
	g := NewGraph(2, 4)
	g.AddEdge(0, 0, 64)
	g.AddEdge(0, 1, 64)
	g.AddEdge(0, 2, 64)
	g.AddEdge(1, 2, 64)
	g.AddEdge(1, 3, 64)
	return g
}

func TestMatchAugmentingContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	owner, size, err := matchRows(ctx, rowsOf(figure5Graph()), []int{2, 2})
	if owner != nil || size != 0 {
		t.Fatalf("got partial matching (%v, %d) from a cancelled ctx", owner, size)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMatchAugmentingContextLiveMatchesPlain(t *testing.T) {
	owner, size, err := matchRows(context.Background(), rowsOf(figure5Graph()), []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	plainOwner, plainSize := MatchAugmenting(figure5Graph(), []int{2, 2})
	if size != plainSize {
		t.Fatalf("size %d != plain %d", size, plainSize)
	}
	for f := range owner {
		if owner[f] != plainOwner[f] {
			t.Fatalf("owner[%d] = %d != plain %d", f, owner[f], plainOwner[f])
		}
	}
}

func TestAssignMaxLocalityContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []Algorithm{EdmondsKarp, Dinic} {
		res, err := AssignMaxLocalityContext(ctx, figure5Graph().procRows(),
			[]int64{128, 128}, []int64{64, 64, 64, 64}, algo)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", algo, err)
		}
		if res.Owner != nil {
			t.Fatalf("%v: got partial result %+v from a cancelled ctx", algo, res)
		}
	}
}

func TestAssignMaxLocalityContextLiveMatchesPlain(t *testing.T) {
	for _, algo := range []Algorithm{EdmondsKarp, Dinic} {
		res, err := AssignMaxLocalityContext(context.Background(), figure5Graph().procRows(),
			[]int64{128, 128}, []int64{64, 64, 64, 64}, algo)
		if err != nil {
			t.Fatal(err)
		}
		plain := AssignMaxLocality(figure5Graph(), []int64{128, 128}, []int64{64, 64, 64, 64}, algo)
		if !slices.Equal(res.Owner, plain.Owner) {
			t.Fatalf("%v: owners %v != plain %v", algo, res.Owner, plain.Owner)
		}
	}
}

func TestFlowNetworkStopHook(t *testing.T) {
	// A stop hook that trips immediately must abort the solve and surface
	// through StopErr; a nil hook must leave MaxFlow untouched.
	build := func() (*FlowNetwork, int, int) {
		fn := NewFlowNetwork(4)
		fn.AddArc(0, 1, 5)
		fn.AddArc(1, 2, 5)
		fn.AddArc(2, 3, 5)
		return fn, 0, 3
	}
	fn, s, tk := build()
	if got := fn.MaxFlowEK(s, tk); got != 5 {
		t.Fatalf("baseline EK flow = %d, want 5", got)
	}
	sentinel := errors.New("stop")
	fn, s, tk = build()
	fn.SetStop(func() error { return sentinel })
	if got := fn.MaxFlowEK(s, tk); got != 0 {
		t.Fatalf("stopped EK flow = %d, want 0", got)
	}
	if !errors.Is(fn.StopErr(), sentinel) {
		t.Fatalf("StopErr = %v, want sentinel", fn.StopErr())
	}
	fn, s, tk = build()
	fn.SetStop(func() error { return sentinel })
	if got := fn.MaxFlowDinic(s, tk); got != 0 {
		t.Fatalf("stopped Dinic flow = %d, want 0", got)
	}
	if !errors.Is(fn.StopErr(), sentinel) {
		t.Fatalf("StopErr = %v, want sentinel", fn.StopErr())
	}
}
