package engine

import (
	"math"
	"testing"

	"opass/internal/core"
	"opass/internal/dfs"
)

// steerer is a minimal ReadSteerer: lowest-numbered holder wins, every
// consultation and read start is tallied.
type steerer struct {
	picks   int
	started map[int]float64
}

func (s *steerer) PickRemote(reader int, holders []int, sizeMB float64) int {
	s.picks++
	best := holders[0]
	for _, h := range holders[1:] {
		if h < best {
			best = h
		}
	}
	return best
}

func (s *steerer) ReadStarted(node int, sizeMB float64) {
	if s.started == nil {
		s.started = map[int]float64{}
	}
	s.started[node] += sizeMB
}

// TestRunBalancerSkipsCrashedHolders: the steered pick must choose among
// live holders only — a crashed node handed to PickRemote would abort the
// run (or worse, serve a read from a dead DataNode).
func TestRunBalancerSkipsCrashedHolders(t *testing.T) {
	r := buildRig(t, 8, 40, 22, dfs.RandomPlacement{})
	a, err := core.RankStatic{}.Assign(r.prob)
	if err != nil {
		t.Fatal(err)
	}
	bal := &steerer{}
	opts := r.opts("rank")
	opts.Balancer = bal
	opts.Failures = []NodeFailure{{Node: 0, At: 0}}
	res, err := RunAssignment(opts, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if rec.SrcNode == 0 {
			t.Fatalf("read of chunk %d served by the crashed node 0", rec.Chunk)
		}
	}
}

// TestRunRecordsAccessStats: the single-job read path must feed the dfs
// access accounting (the telemetry the replication advisor classifies on).
func TestRunRecordsAccessStats(t *testing.T) {
	r := buildRig(t, 8, 40, 23, dfs.RandomPlacement{})
	r.fs.EnableAccessStats(1e6) // effectively undecayed over this run
	a, err := core.RankStatic{}.Assign(r.prob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAssignment(r.opts("rank"), a)
	if err != nil {
		t.Fatal(err)
	}
	now := 1e3
	var total uint64
	var servedMB, remoteMB float64
	for id := dfs.ChunkID(0); int(id) < r.fs.NumChunks(); id++ {
		st := r.fs.Access(id, now)
		total += st.TotalReads
		servedMB += st.ServedMB
		remoteMB += st.RemoteMB
	}
	if total != uint64(len(res.Records)) {
		t.Fatalf("accounted %d reads, engine recorded %d", total, len(res.Records))
	}
	var wantRemote float64
	for _, rec := range res.Records {
		if !rec.Local {
			wantRemote += rec.SizeMB
		}
	}
	// The long half-life still decays scores by ~0.1% between the reads and
	// the query, so compare within a relative tolerance.
	if math.Abs(remoteMB-wantRemote) > 0.01*wantRemote {
		t.Fatalf("remote MB accounted %v, want ~%v", remoteMB, wantRemote)
	}
	if want := 40 * 64.0; math.Abs(servedMB-want) > 0.01*want {
		t.Fatalf("served MB accounted %v, want ~%v", servedMB, want)
	}
}

// tickRecorder is a minimal AdvisorTicker.
type tickRecorder struct {
	times   []float64
	changed bool
}

func (a *tickRecorder) Tick(now float64) bool {
	a.times = append(a.times, now)
	return a.changed
}

func TestAdvisorTicksFirePeriodically(t *testing.T) {
	r := buildRig(t, 8, 80, 24, dfs.RandomPlacement{})
	a, err := core.RankStatic{}.Assign(r.prob)
	if err != nil {
		t.Fatal(err)
	}
	adv := &tickRecorder{}
	opts := r.opts("rank")
	opts.Advisor = adv
	opts.AdvisorInterval = 2
	res, err := RunAssignment(opts, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.AdvisorTicks != len(adv.times) {
		t.Fatalf("AdvisorTicks = %d, ticker saw %d", res.AdvisorTicks, len(adv.times))
	}
	if len(adv.times) < 2 {
		t.Fatalf("advisor ticked %d times over a %.1fs run at interval 2s", len(adv.times), res.Makespan)
	}
	for i, now := range adv.times {
		if want := float64(i+1) * 2; math.Abs(now-want) > 1e-6 {
			t.Fatalf("tick %d at %v, want %v", i, now, want)
		}
	}
	// Ticks must stop once every process has drained: at most one trailing
	// pass past the makespan.
	if got, cap := len(adv.times), int(res.Makespan/2)+2; got > cap {
		t.Fatalf("%d ticks for a %.1fs run (interval 2s): timer kept rescheduling", got, res.Makespan)
	}
}

func TestAdvisorRequiresInterval(t *testing.T) {
	r := buildRig(t, 4, 8, 25, dfs.RandomPlacement{})
	a, err := core.RankStatic{}.Assign(r.prob)
	if err != nil {
		t.Fatal(err)
	}
	opts := r.opts("rank")
	opts.Advisor = &tickRecorder{}
	if _, err := RunAssignment(opts, a); err == nil {
		t.Fatal("advisor without interval accepted")
	}
}
