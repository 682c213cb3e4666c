package core

import (
	"bytes"
	"testing"

	"opass/internal/dfs"
)

// TestCanonicalDeterministic: two problems built identically encode
// byte-for-byte equally — the property that lets a plan cache recognize a
// repeated request.
func TestCanonicalDeterministic(t *testing.T) {
	p1, _ := buildSingle(t, 8, 24, 71, dfs.RandomPlacement{})
	p2, _ := buildSingle(t, 8, 24, 71, dfs.RandomPlacement{})
	b1 := p1.AppendCanonical(nil)
	b2 := p2.AppendCanonical(nil)
	if len(b1) == 0 {
		t.Fatal("empty canonical encoding")
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("identically built problems encode differently")
	}
	// Repeated encoding of the same problem is stable too.
	if !bytes.Equal(b1, p1.AppendCanonical(nil)) {
		t.Fatal("re-encoding the same problem differs")
	}
}

// TestCanonicalAppends: the encoding appends to the given prefix.
func TestCanonicalAppends(t *testing.T) {
	p, _ := buildSingle(t, 4, 8, 72, dfs.RandomPlacement{})
	prefix := []byte("prefix")
	out := p.AppendCanonical(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("prefix not preserved")
	}
	if !bytes.Equal(out[len(prefix):], p.AppendCanonical(nil)) {
		t.Fatal("suffix differs from fresh encoding")
	}
}

// TestCanonicalSensitivity: every ingredient of a plan perturbs the
// encoding — replica moves on referenced chunks, process placement, task
// shape — while mutations that cannot affect the plan (placement changes on
// files the problem does not read) leave it byte-stable.
func TestCanonicalSensitivity(t *testing.T) {
	build := func() (*Problem, *dfs.FileSystem) {
		return buildSingle(t, 8, 16, 73, dfs.RandomPlacement{})
	}
	base, _ := build()
	baseEnc := base.AppendCanonical(nil)

	// MoveReplica on a referenced chunk changes the encoding.
	p, fs := build()
	c := fs.Chunk(p.Tasks[0].Inputs[0].Chunk)
	dst := -1
	for n := 0; n < 8; n++ {
		if !c.HostedOn(n) {
			dst = n
			break
		}
	}
	if err := fs.MoveReplica(c.ID, c.Replicas[0], dst); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(baseEnc, p.AppendCanonical(nil)) {
		t.Fatal("MoveReplica did not change the canonical encoding")
	}

	// A placement mutation NOT touching any referenced chunk leaves the
	// encoding byte-stable: only the read chunks' replica rows are encoded,
	// so unrelated churn keeps cached plans hot.
	p, fs = build()
	if _, err := fs.Create("/unrelated", 64); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseEnc, p.AppendCanonical(nil)) {
		t.Fatal("mutation of an unrelated file changed the canonical encoding")
	}
	// A referenced chunk whose replica moves away and back is the same
	// problem again, so it keeps its encoding (and its cached plan).
	c2 := fs.Chunk(p.Tasks[0].Inputs[0].Chunk)
	origReplicas := append([]int(nil), c2.Replicas...)
	dst2 := -1
	for n := 0; n < 8; n++ {
		if !c2.HostedOn(n) {
			dst2 = n
			break
		}
	}
	if err := fs.MoveReplica(c2.ID, origReplicas[0], dst2); err != nil {
		t.Fatal(err)
	}
	if err := fs.MoveReplica(c2.ID, dst2, origReplicas[0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseEnc, p.AppendCanonical(nil)) {
		t.Fatal("replica move-and-return on a referenced chunk changed the encoding")
	}
	// A changed replica set on that same store still changes it.
	if err := fs.AddReplica(c2.ID, dst2); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(baseEnc, p.AppendCanonical(nil)) {
		t.Fatal("an added replica on a referenced chunk left the encoding unchanged")
	}

	// Process placement matters.
	p, _ = build()
	p.ProcNode[0], p.ProcNode[1] = p.ProcNode[1], p.ProcNode[0]
	if bytes.Equal(baseEnc, p.AppendCanonical(nil)) {
		t.Fatal("proc→node change did not change the canonical encoding")
	}

	// Task input size matters.
	p, _ = build()
	p.Tasks[3].Inputs[0].SizeMB += 1
	if bytes.Equal(baseEnc, p.AppendCanonical(nil)) {
		t.Fatal("input size change did not change the canonical encoding")
	}

	// Task count matters.
	p, _ = build()
	p.Tasks = p.Tasks[:len(p.Tasks)-1]
	if bytes.Equal(baseEnc, p.AppendCanonical(nil)) {
		t.Fatal("task removal did not change the canonical encoding")
	}
}

// TestCanonicalRenameIndependent: a file name never reaches the fingerprint.
// The same file written under another name, on a file system with the same
// seed, encodes byte-identically — block locations are keyed by chunk IDs,
// not names — so a cache hit across names is correct, not stale. The
// planner's output must be name-independent too, or the stable fingerprint
// would serve a wrong plan.
func TestCanonicalRenameIndependent(t *testing.T) {
	p, _ := buildSingle(t, 8, 24, 74, dfs.RandomPlacement{})
	fs := dfs.New(view{8}, dfs.Config{Seed: 74, Placement: dfs.RandomPlacement{}})
	if _, err := fs.Create("/data-renamed", 24*64); err != nil {
		t.Fatal(err)
	}
	procNode := make([]int, 8)
	for i := range procNode {
		procNode[i] = i
	}
	renamed, err := SingleDataProblem(fs, []string{"/data-renamed"}, procNode)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.AppendCanonical(nil), renamed.AppendCanonical(nil)) {
		t.Fatal("the renamed file encodes differently: a file name leaks into the fingerprint")
	}
	planBefore, err := SingleData{Seed: 7}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	planAfter, err := SingleData{Seed: 7}.Assign(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if !slicesEqualInt(planBefore.Owner, planAfter.Owner) {
		t.Fatal("the renamed file plans differently: a file name leaks into planning state")
	}
}

func slicesEqualInt(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
