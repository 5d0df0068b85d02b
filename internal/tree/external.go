package tree

import (
	"hohtx/internal/arena"
	"hohtx/internal/link"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// External is the unbalanced external binary search tree: keys live in
// leaves, internal nodes are binary routers (left subtree < key ≤ right
// subtree). Initialization follows the standard sentinel arrangement (as
// in Natarajan–Mittal): a root router and an inner sentinel router with
// sentinel leaves, so every real leaf has a real router parent and a
// grandparent, and updates never touch the sentinels.
//
// Insert replaces a leaf with a (router, old leaf, new leaf) triple;
// Remove deletes a leaf and its parent router, promoting the sibling.
// Because removal is the only operation that takes nodes out of the tree
// and it removes exactly {leaf, parent router}, those two are the only
// nodes a remover must revoke — the paper's Figure 7 notes the absence of
// multi-revokes is why even the strict schemes fare better here than in
// the internal tree.
type External struct {
	base
	root arena.Handle
}

var _ sets.Set = (*External)(nil)
var _ sets.MemoryReporter = (*External)(nil)

// NewExternal constructs an external-tree set.
func NewExternal(cfg link.Config) *External {
	b := newBase(cfg, "etree")
	t := &External{base: b}
	l0 := b.initNode(sent0, arena.Nil, arena.Nil)
	l1 := b.initNode(sent1, arena.Nil, arena.Nil)
	l2 := b.initNode(sent2, arena.Nil, arena.Nil)
	s := b.initNode(sent1, l0, l1)
	t.root = b.initNode(sent2, s, l2)
	return t
}

// applyExt is the hand-over-hand window engine for the external tree.
// onLeaf runs in the terminal window with the reached leaf and its
// ancestor routers: gH (grandparent), pH (parent), with pH the pDir-child
// of gH and the leaf the lDir-child of pH. needsDepth is how many
// ancestors the operation requires (0 lookup, 1 insert, 2 remove); a
// resumed window that reaches the leaf with fewer restarts from the root.
func (t *External) applyExt(tid int, key uint64, needsDepth int,
	onLeaf func(tx *stm.Tx, gH, pH, leafH arena.Handle, pDir, lDir int) bool) bool {

	t.Begin(tid, 1)
	var res bool
	for {
		done := false
		t.RT.AtomicT(tid, func(tx *stm.Tx) {
			done = false
			res = false
			startH, held := t.Start(tx, tid, t.root)
			budget := t.Budget(tx, held)
			gH, pH := arena.Nil, arena.Nil
			pDir, cDir := 0, 0
			currH := startH
			steps := 0
			for {
				n := t.Arena.At(currH)
				if t.LoadLink(tx, tid, currH, &n.left).IsNil() {
					// Reached a leaf.
					depth := 0
					if !pH.IsNil() {
						depth = 1
					}
					if !gH.IsNil() {
						depth = 2
					}
					if depth < needsDepth {
						t.Terminal(tx, tid, held)
						return // restart from the root next window
					}
					res = onLeaf(tx, gH, pH, currH, pDir, cDir)
					t.Terminal(tx, tid, held)
					done = true
					return
				}
				if steps >= budget {
					t.Hold(tx, tid, held, currH, 0)
					return
				}
				gH, pDir = pH, cDir
				pH = currH
				if key < t.LoadWord(tx, tid, currH, &n.key) {
					currH = t.LoadLink(tx, tid, currH, &n.left)
					cDir = 0
				} else {
					currH = t.LoadLink(tx, tid, currH, &n.right)
					cDir = 1
				}
				if currH.IsNil() {
					// A router's children are never Nil; only a poisoned
					// link defuses to Nil. This attempt is doomed — drop
					// the hold and retry from the root.
					t.Terminal(tx, tid, held)
					return
				}
				steps++
			}
		})
		if done {
			return res
		}
	}
}

// Lookup implements sets.Set.
func (t *External) Lookup(tid int, key uint64) bool {
	return t.applyExt(tid, key, 0,
		func(tx *stm.Tx, gH, pH, leafH arena.Handle, pDir, lDir int) bool {
			return t.LoadWord(tx, tid, leafH, &t.Arena.At(leafH).key) == key
		},
	)
}

// Insert implements sets.Set.
func (t *External) Insert(tid int, key uint64) bool {
	if key > MaxKey {
		panic("tree: key out of range")
	}
	return t.applyExt(tid, key, 1,
		func(tx *stm.Tx, gH, pH, leafH arena.Handle, pDir, lDir int) bool {
			leafKey := t.LoadWord(tx, tid, leafH, &t.Arena.At(leafH).key)
			if leafKey == key {
				return false
			}
			newLeaf := t.allocNode(tx, tid, key, arena.Nil, arena.Nil)
			var router arena.Handle
			if key < leafKey {
				router = t.allocNode(tx, tid, leafKey, newLeaf, leafH)
			} else {
				router = t.allocNode(tx, tid, key, leafH, newLeaf)
			}
			child(t.Arena.At(pH), lDir).Store(tx, uint64(router))
			return true
		},
	)
}

// Remove implements sets.Set: it unlinks the leaf and its parent router,
// promoting the sibling subtree to the grandparent.
func (t *External) Remove(tid int, key uint64) bool {
	return t.applyExt(tid, key, 2,
		func(tx *stm.Tx, gH, pH, leafH arena.Handle, pDir, lDir int) bool {
			if t.LoadWord(tx, tid, leafH, &t.Arena.At(leafH).key) != key {
				return false
			}
			sibling := uint64(t.LoadLink(tx, tid, pH, child(t.Arena.At(pH), 1-lDir)))
			child(t.Arena.At(gH), pDir).Store(tx, sibling)
			t.Reclaim(tx, tid, pH)
			t.Reclaim(tx, tid, leafH)
			return true
		},
	)
}

// Snapshot implements sets.Set (quiescence required); sentinel leaves are
// excluded.
func (t *External) Snapshot() []uint64 {
	var out []uint64
	var walk func(h arena.Handle)
	walk = func(h arena.Handle) {
		if h.IsNil() {
			return
		}
		n := t.Arena.At(h)
		l := arena.Handle(n.left.Raw())
		if l.IsNil() {
			if k := n.key.Raw(); k <= MaxKey {
				out = append(out, k)
			}
			return
		}
		walk(l)
		walk(arena.Handle(n.right.Raw()))
	}
	walk(t.root)
	return out
}

// ValidateRouting checks that every leaf is reachable under the routing
// invariant and every router has two children (test helper). Intervals are
// inclusive: a leaf under a router with key k satisfies key < k on the
// left and key >= k on the right.
func (t *External) ValidateRouting() bool {
	ok := true
	var walk func(h arena.Handle, lo, hi uint64)
	walk = func(h arena.Handle, lo, hi uint64) {
		if !ok || h.IsNil() {
			return
		}
		n := t.Arena.At(h)
		k := n.key.Raw()
		l := arena.Handle(n.left.Raw())
		r := arena.Handle(n.right.Raw())
		if l.IsNil() {
			if !r.IsNil() || k < lo || k > hi {
				ok = false
			}
			return
		}
		if r.IsNil() || k < lo || k > hi {
			ok = false // router with one child or out-of-interval key
			return
		}
		walk(l, lo, k-1)
		walk(r, k, hi)
	}
	walk(t.root, 0, ^uint64(0))
	return ok
}
