package plannerbench

import (
	"fmt"
	"testing"
)

// TestReplanRig pins the rig's contract at every benchmark scale: both
// replans splice, and the delta replan touches only a small fraction of
// the backlog — the property that makes it worth benchmarking at all.
func TestReplanRig(t *testing.T) {
	for _, procs := range Sizes {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			r, err := BuildReplanRig(procs)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.ReplanCold(); err != nil {
				t.Fatal(err)
			}
			rematched, err := r.ReplanDelta()
			if err != nil {
				t.Fatal(err)
			}
			total := len(r.Prob.Tasks)
			if rematched == 0 {
				t.Fatal("delta replan re-matched nothing after a crash")
			}
			if rematched*10 >= total {
				t.Fatalf("delta replan re-matched %d of %d tasks — not surgical", rematched, total)
			}
		})
	}
}
