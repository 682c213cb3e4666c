package core

import (
	"encoding/binary"
	"math"
	"slices"
)

// This file defines the canonical binary encoding of an assignment problem,
// the content that a plan fingerprint hashes. An Opass plan is a pure
// function of (process placement, task inputs, replica placement, strategy
// + its parameters): the encoding captures the problem side of that tuple
// exactly — the proc→node map, every task's inputs with chunk identity and
// size, each referenced chunk's replica list, and the rack map when it spans
// racks. Only the chunks the problem actually reads contribute, so a
// placement mutation on an unrelated file leaves the fingerprint — and any
// cached plan keyed by it — untouched, while any change to a referenced
// chunk's replica set changes it. A replica that moves away and back leaves
// the same problem, so it keeps its fingerprint and its plan.
// File names never enter the encoding: a renamed file keeps its fingerprint,
// which is correct because plans depend only on placement, not on names.
//
// The encoding is deliberately not a serialization format: there is no
// decoder, and the only contract is that equal problems encode equally and
// that any input the planners consult is covered. Every integer is written
// as fixed-width little-endian with explicit length prefixes, so no two
// distinct problems can collide by field aliasing.

// AppendCanonical appends the canonical encoding of the problem to b and
// returns the extended slice. Callers hash the result (see
// plancache.KeyOf) together with the strategy name and planner parameters
// to form a cache key.
func (p *Problem) AppendCanonical(b []byte) []byte {
	b = slices.Grow(b, p.canonicalLen())
	var u [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(u[:], v)
		b = append(b, u[:]...)
	}
	put(uint64(len(p.ProcNode)))
	for _, n := range p.ProcNode {
		put(uint64(n))
	}
	put(uint64(len(p.Tasks)))
	for i := range p.Tasks {
		t := &p.Tasks[i]
		put(uint64(len(t.Inputs)))
		for _, in := range t.Inputs {
			put(uint64(in.Chunk))
			put(math.Float64bits(in.SizeMB))
			replicas := p.FS.Replicas(in.Chunk)
			put(uint64(len(replicas)))
			for _, r := range replicas {
				put(uint64(r))
			}
		}
	}
	// The rack map enters the encoding only when it can influence a plan
	// (multi-rack): a nil map and a single-rack map plan identically, so
	// they share an encoding, while two problems differing only in a
	// multi-rack layout get distinct fingerprints. Appending a suffix
	// cannot alias an encoding without one: the prefix parse up to here is
	// unambiguous, so equal byte strings imply equal problems and equal
	// total lengths.
	if p.RackTiered() {
		put(uint64(len(p.NodeRack)))
		for _, r := range p.NodeRack {
			put(uint64(r))
		}
	}
	return b
}

// canonicalLen is the exact byte length AppendCanonical appends, so the
// buffer is sized once instead of doubling its way up to it.
func (p *Problem) canonicalLen() int {
	words := 2 + len(p.ProcNode) + len(p.Tasks)
	for i := range p.Tasks {
		for _, in := range p.Tasks[i].Inputs {
			words += 3 + len(p.FS.Replicas(in.Chunk))
		}
	}
	if p.RackTiered() {
		words += 1 + len(p.NodeRack)
	}
	return 8 * words
}
