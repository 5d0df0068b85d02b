// Package tree implements the paper's unbalanced binary search trees
// (§4.3): an internal tree (values in every node) and an external tree
// (values in leaves, routers inside), both with hand-over-hand
// transactions and revocable reservations, plus the whole-operation
// transaction baseline (HTM) and — for the external tree, as in the
// paper's Figure 7 — a hazard-pointer variant (TMHP). The external tree
// additionally supports the post-2017 deferred schemes of the extended
// reclamation matrix (DESIGN.md §14): hazard eras (TMHE) and
// version-based reclamation (TMVBR).
//
// The delicate part is the internal tree's removal of a node with two
// children: the victim's value is overwritten with its successor l (the
// leftmost descendant of its right child) and the successor's node is
// extracted. Because l's value moves *upward*, any traversal that reserved
// a node on the path from the victim to l could resume below l's new
// position and wrongly conclude l is absent; the remover therefore revokes
// every node on that path (victim and extracted node included), forcing
// those traversals to restart from the root (§4.3, last paragraph).
package tree

import (
	"hohtx/internal/arena"
	"hohtx/internal/link"
	"hohtx/internal/pad"
	"hohtx/internal/stm"
)

// sentinel keys; user keys must be below sent0.
const (
	sent0 = ^uint64(0) - 2 // external tree: initial empty leaf
	sent1 = ^uint64(0) - 1 // external tree: inner sentinel router/leaf
	sent2 = ^uint64(0)     // roots
)

// MaxKey is the largest user key the trees accept.
const MaxKey = sent0 - 1

// node is the shared node layout for both trees. In the external tree a
// node is a leaf iff its left child is Nil.
type node struct {
	key   stm.Word
	left  stm.Word // arena.Handle bits
	right stm.Word
	dead  stm.Word // deferred modes' logical-deletion mark
	_     pad.Line
}

// base carries the node machinery shared by the internal and external
// trees; the window protocol is link.Base's.
type base struct {
	*link.Base[node]
}

// newBase builds the shared base for family ("itree" or "etree"). The
// zero Config window means W = 16, and the zero profile the paper's tree
// setting: serial fallback after 8 attempts (§5).
func newBase(cfg link.Config, family string) base {
	return base{link.New(cfg, link.Layout[node]{
		Family: family, Attempts: 8, Window: 16,
		Dead:   func(n *node) *stm.Word { return &n.dead },
		Retire: retireNode,
		Poison: poisonNode,
	})}
}

// initNode allocates a sentinel-phase node with non-transactional Init
// (construction only: the node has never been shared).
func (b base) initNode(key uint64, left, right arena.Handle) arena.Handle {
	h := b.Arena.Alloc(0)
	n := b.Arena.At(h)
	n.key.Init(key)
	n.left.Init(uint64(left))
	n.right.Init(uint64(right))
	n.dead.Init(0)
	return h
}

// allocNode allocates and transactionally initializes a node (recycled
// slots require transactional stores; see package arena).
func (b base) allocNode(tx *stm.Tx, tid int, key uint64, left, right arena.Handle) arena.Handle {
	h := b.Alloc(tx, tid)
	n := b.Arena.At(h)
	n.key.Store(tx, key)
	n.left.Store(tx, uint64(left))
	n.right.Store(tx, uint64(right))
	n.dead.Store(tx, 0)
	return h
}
