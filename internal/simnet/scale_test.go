package simnet

import (
	"math"
	"testing"
)

// A degraded resource slows an in-flight transfer from the instant the
// scale changes, and restoring it speeds the transfer back up.
func TestSetScaleChangesRatesMidFlight(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	n.Start([]ResourceID{disk}, 100, 0, 0) // 1s at full speed

	// Run the first half at full speed.
	if !n.RunUntil(0.5) {
		t.Fatal("flow finished early")
	}
	// Degrade to 10%: the remaining 50 MB now move at 10 MB/s => 5s more.
	n.SetScale(disk, 0.1)
	var end float64
	n.OnComplete(func(now float64, f *Flow) { end = now })
	n.Run()
	if math.Abs(end-5.5) > 1e-6 {
		t.Fatalf("degraded completion at %v, want 5.5", end)
	}
	if got := n.Scale(disk); got != 0.1 {
		t.Fatalf("Scale = %v, want 0.1", got)
	}

	// Restore and run a fresh transfer at nominal speed.
	n.SetScale(disk, 1)
	n.Start([]ResourceID{disk}, 100, 0, 0)
	n.Run()
	if math.Abs(end-6.5) > 1e-6 {
		t.Fatalf("restored completion at %v, want 6.5", end)
	}
}

// The seek penalty compounds with the scale: k contended streams on a
// degraded disk share scale*capacity/(1+alpha*(k-1)).
func TestSetScaleComposesWithSeekPenalty(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 1) // alpha=1: 2 streams halve throughput
	n.SetScale(disk, 0.5)
	n.Start([]ResourceID{disk}, 25, 0, 0)
	n.Start([]ResourceID{disk}, 25, 0, 0)
	// Aggregate = 0.5*100/(1+1) = 25 MB/s, 12.5 each => both end at t=2.
	var last float64
	n.OnComplete(func(now float64, f *Flow) { last = now })
	n.Run()
	if math.Abs(last-2) > 1e-6 {
		t.Fatalf("contended degraded completion at %v, want 2", last)
	}
}

func TestSetScaleRejectsNonPositive(t *testing.T) {
	n := New()
	disk := n.AddResource("disk", 100, 0)
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetScale(%v) did not panic", bad)
				}
			}()
			n.SetScale(disk, bad)
		}()
	}
}
