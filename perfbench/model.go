package main

import (
	"fmt"
	"math/rand"

	"hohtx/internal/sets"
)

// owners is how many connections (kv-*) or worker goroutines (lib-list)
// share a workload. Key k belongs to owner k mod owners, and only that
// owner reads or writes it, so every reply has exactly one right answer
// while neighbouring nodes stay contended.
const owners = 2

// An op is packed as key<<2 | kind, kind being a sets.OpKind.
func packOp(kind sets.OpKind, key uint64) uint32 { return uint32(key)<<2 | uint32(kind) }

func unpackOp(op uint32) (sets.OpKind, uint64) { return sets.OpKind(op & 3), uint64(op >> 2) }

// mix gives the percentages of GET (lookup), SET (insert) and DEL (remove).
type mix struct{ get, set, del int }

// genOps draws n ops for owner from its keys in [1, keyRange], uniformly.
func genOps(r *rand.Rand, owner, keyRange, n int, m mix) []uint32 {
	first := owner
	if first == 0 {
		first = owners
	}
	count := (keyRange-first)/owners + 1
	out := make([]uint32, n)
	for i := range out {
		key := uint64(first + owners*r.Intn(count))
		kind := sets.OpLookup
		switch p := r.Intn(100); {
		case p >= m.get+m.set:
			kind = sets.OpRemove
		case p >= m.get:
			kind = sets.OpInsert
		}
		out[i] = packOp(kind, key)
	}
	return out
}

// prefillKeys returns a seeded random half of [1, keyRange] in shuffled
// order: an ascending prefill would degenerate the external BST into a
// list.
func prefillKeys(r *rand.Rand, keyRange int) []uint64 {
	perm := r.Perm(keyRange)[:keyRange/2]
	out := make([]uint64, len(perm))
	for i, p := range perm {
		out[i] = uint64(p + 1)
	}
	return out
}

// model is one owner's exact view of its keys: the prefill plus every
// acknowledged insert minus every acknowledged remove.
type model struct {
	present []bool // indexed by key; only the owner's keys are ever set
	n       int
}

func newModel(keyRange int) *model { return &model{present: make([]bool, keyRange+1)} }

// apply checks a reply against the one right answer for op and folds the
// acknowledged effect into the model. It returns false on a mismatch.
func (m *model) apply(op uint32, got bool) bool {
	kind, key := unpackOp(op)
	p := m.present[key]
	switch kind {
	case sets.OpInsert:
		if got && !p {
			m.present[key] = true
			m.n++
		}
		return got == !p
	case sets.OpRemove:
		if got && p {
			m.present[key] = false
			m.n--
		}
		return got == p
	default:
		return got == p
	}
}

// checkKeys compares an ascending key enumeration with the union of the
// models and returns one line per disagreement (at most a few).
func checkKeys(snap []uint64, models []*model) []string {
	var probs []string
	want := 0
	for _, m := range models {
		want += m.n
	}
	if len(snap) != want {
		probs = append(probs, fmt.Sprintf("structure holds %d keys, oracle expects %d", len(snap), want))
	}
	for i, k := range snap {
		if i > 0 && snap[i-1] >= k {
			probs = append(probs, fmt.Sprintf("enumeration not strictly ascending at %d", k))
			break
		}
		m := models[k%owners]
		if k >= uint64(len(m.present)) || !m.present[k] {
			probs = append(probs, fmt.Sprintf("key %d present, oracle says absent", k))
			break
		}
	}
	return probs
}
