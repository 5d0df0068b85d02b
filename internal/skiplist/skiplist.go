// Package skiplist implements a concurrent skiplist set with hand-over-hand
// transactions and revocable reservations — one of the "other concurrent
// data structures, such as balanced trees and hash tables, for which
// existing scalable algorithms rely on deferred memory reclamation" that the
// paper's conclusion (§6) proposes as the technique's next applications.
// Probabilistic balancing makes the skiplist the natural stand-in for a
// balanced tree here: it gives O(log n) expected traversals with none of the
// rotation problem (a rotation moves subtrees across regions, which would
// force wide revocation; a skiplist removal disturbs exactly one node).
//
// Design. A node has a height h drawn geometrically and participates in h
// sorted chains. A traversal descends as usual: run right along level l
// while next.key < target, then drop a level. Hand-over-hand windows cut
// the traversal after W node inspections; the thread reserves the node it
// will resume from and remembers the level in thread-local state (the
// level needs no protection: if the reservation is still valid the node is
// still in every one of its chains with its key intact, so resuming the
// descent from (node, level) is exactly a sequential search step).
//
// Removal unlinks the victim from all of its levels inside the final
// transaction, revokes it once, and frees it at the commit point — precise
// reclamation, one Revoke per removal regardless of height. The correctness
// argument is the singly linked list's (§4.1), applied per level: unlinking
// never changes any surviving node's key or forward reachability, so the
// only resumption point a removal can invalidate is the removed node
// itself, which is exactly what Revoke clears.
package skiplist

import (
	"hohtx/internal/arena"
	"hohtx/internal/link"
	"hohtx/internal/pad"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// MaxHeight bounds node heights; 2^20 expected keys per level-20 node is
// far beyond the benchmark sizes.
const MaxHeight = 20

// node is a skiplist element. height is immutable after the insert that
// published the node commits; next[0:height] are the forward links; dead
// is the deferred modes' logical-deletion mark.
type node struct {
	key    stm.Word
	height stm.Word
	dead   stm.Word
	next   [MaxHeight]stm.Word
	_      pad.Line
}

// threadState is the skiplist's own per-thread state (the held position
// and its level live in link.Base: the level is the link's resume word).
type threadState struct {
	rng uint64
	_   pad.Line
}

// SkipList is the concurrent set.
type SkipList struct {
	*link.Base[node]
	head    arena.Handle // sentinel at full height, key 0
	threads []threadState
}

var _ sets.Set = (*SkipList)(nil)
var _ sets.MemoryReporter = (*SkipList)(nil)

// New constructs a skiplist set. The zero Config window means W = 16 node
// inspections per transaction, and the zero profile the tree setting:
// serial fallback after 8 attempts.
func New(cfg link.Config) *SkipList {
	b := link.New(cfg, link.Layout[node]{
		Family: "skip", Attempts: 8, Window: 16, Scans: true,
		Dead:   func(n *node) *stm.Word { return &n.dead },
		Retire: retireNode,
		Poison: poisonNode,
	})
	s := &SkipList{Base: b, threads: make([]threadState, b.Threads())}
	for i := range s.threads {
		s.threads[i].rng = uint64(i)*0x9e3779b97f4a7c15 + 0xdeadbeef
	}
	s.head = s.Arena.Alloc(0)
	h := s.Arena.At(s.head)
	h.key.Init(0)
	h.height.Init(MaxHeight)
	h.dead.Init(0)
	for l := 0; l < MaxHeight; l++ {
		h.next[l].Init(0)
	}
	return s
}

// Name implements sets.Set.
func (s *SkipList) Name() string { return s.Base.Name() + "/skip" }

// randHeight draws a geometric height in [1, MaxHeight] (p = 1/2).
func (s *SkipList) randHeight(tid int) int {
	ts := &s.threads[tid]
	x := ts.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ts.rng = x
	h := 1
	for x&1 == 1 && h < MaxHeight {
		h++
		x >>= 1
	}
	return h
}

// Snapshot implements sets.Set via the bottom level (quiescence required).
func (s *SkipList) Snapshot() []uint64 {
	var out []uint64
	for h := arena.Handle(s.Arena.At(s.head).next[0].Raw()); !h.IsNil(); {
		n := s.Arena.At(h)
		out = append(out, n.key.Raw())
		h = arena.Handle(n.next[0].Raw())
	}
	return out
}

// ValidateLevels checks that every level is sorted and a sub-sequence of
// the level below (test helper; quiescence required).
func (s *SkipList) ValidateLevels() bool {
	bottom := map[uint64]bool{}
	for _, k := range s.Snapshot() {
		bottom[k] = true
	}
	for l := 0; l < MaxHeight; l++ {
		prev := uint64(0)
		for h := arena.Handle(s.Arena.At(s.head).next[l].Raw()); !h.IsNil(); {
			n := s.Arena.At(h)
			k := n.key.Raw()
			if l > 0 && !bottom[k] {
				return false // node on level l missing from level 0
			}
			if k <= prev {
				return false // not strictly sorted
			}
			if int(n.height.Raw()) <= l {
				return false // linked above its own height
			}
			prev = k
			h = arena.Handle(n.next[l].Raw())
		}
	}
	return true
}
