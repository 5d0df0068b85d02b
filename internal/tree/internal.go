package tree

import (
	"hohtx/internal/arena"
	"hohtx/internal/link"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Internal is the unbalanced internal binary search tree (§4.3): every
// node carries a value; a sentinel with key +∞ serves as the root so the
// first real node is always a left child and removal of the topmost real
// node needs no special case.
type Internal struct {
	base
	root arena.Handle // sentinel; the tree hangs off its left child
}

var _ sets.Set = (*Internal)(nil)
var _ sets.MemoryReporter = (*Internal)(nil)

// NewInternal constructs an internal-tree set (ModeRR or ModeHTM: the
// paper knows of no internal trees using deferred reclamation).
func NewInternal(cfg link.Config) *Internal {
	b := newBase(cfg, "itree")
	return &Internal{base: b, root: b.initNode(sent2, arena.Nil, arena.Nil)}
}

// child returns the dir-selected child cell of n (0 left, 1 right).
func child(n *node, dir int) *stm.Word {
	if dir == 0 {
		return &n.left
	}
	return &n.right
}

// apply is the hand-over-hand window engine for the internal tree. The
// found callback receives the matching node and its parent (with dir
// selecting which child of the parent it is); the missing callback
// receives the insertion point. needsParent makes a match at a resumed
// window's first node (whose parent is unknown — the paper's nodes store
// child-direction, not parent pointers) drop its hold and restart from
// the root; only Remove needs that.
func (t *Internal) apply(tid int, key uint64, needsParent bool,
	onFound func(tx *stm.Tx, parentH, currH arena.Handle, dir int) bool,
	onMissing func(tx *stm.Tx, parentH arena.Handle, dir int) bool) bool {

	t.Begin(tid, 1)
	var res bool
	for {
		done := false
		t.RT.AtomicT(tid, func(tx *stm.Tx) {
			done = false
			res = false
			startH, held := t.Start(tx, tid, t.root)
			budget := t.Budget(tx, held)
			prevH, currH := arena.Nil, startH
			dir := 0
			steps := 0
			for {
				if currH.IsNil() {
					res = onMissing(tx, prevH, dir)
					t.Terminal(tx, tid, held)
					done = true
					return
				}
				n := t.Arena.At(currH)
				ck := t.LoadWord(tx, tid, currH, &n.key)
				if ck == key {
					if needsParent && prevH.IsNil() {
						// Matched at the resumed start: ancestors unknown.
						t.Terminal(tx, tid, held)
						return // done=false: restart from the root
					}
					res = onFound(tx, prevH, currH, dir)
					t.Terminal(tx, tid, held)
					done = true
					return
				}
				if steps >= budget {
					t.Hold(tx, tid, held, currH, 0)
					return // hand over to the next window at currH
				}
				prevH = currH
				if key < ck {
					currH = t.LoadLink(tx, tid, currH, &n.left)
					dir = 0
				} else {
					currH = t.LoadLink(tx, tid, currH, &n.right)
					dir = 1
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
func (t *Internal) Lookup(tid int, key uint64) bool {
	return t.apply(tid, key, false,
		func(tx *stm.Tx, parentH, currH arena.Handle, dir int) bool { return true },
		func(tx *stm.Tx, parentH arena.Handle, dir int) bool { return false },
	)
}

// Insert implements sets.Set.
func (t *Internal) Insert(tid int, key uint64) bool {
	if key > MaxKey {
		panic("tree: key out of range")
	}
	return t.apply(tid, key, false,
		func(tx *stm.Tx, parentH, currH arena.Handle, dir int) bool { return false },
		func(tx *stm.Tx, parentH arena.Handle, dir int) bool {
			nh := t.allocNode(tx, tid, key, arena.Nil, arena.Nil)
			child(t.Arena.At(parentH), dir).Store(tx, uint64(nh))
			return true
		},
	)
}

// Remove implements sets.Set. The two-children case swaps in the leftmost
// descendant of the right child and revokes the whole victim-to-successor
// path (see the package comment).
func (t *Internal) Remove(tid int, key uint64) bool {
	return t.apply(tid, key, true,
		func(tx *stm.Tx, parentH, vH arena.Handle, dir int) bool {
			t.removeFound(tx, tid, parentH, vH, dir)
			return true
		},
		func(tx *stm.Tx, parentH arena.Handle, dir int) bool { return false },
	)
}

// removeFound deletes the matched node vH (the dir-child of parentH),
// dispatching on its child count.
func (t *Internal) removeFound(tx *stm.Tx, tid int, parentH, vH arena.Handle, dir int) {
	v := t.Arena.At(vH)
	lH := t.LoadLink(tx, tid, vH, &v.left)
	rH := t.LoadLink(tx, tid, vH, &v.right)
	switch {
	case lH.IsNil() && rH.IsNil():
		child(t.Arena.At(parentH), dir).Store(tx, 0)
		t.Reclaim(tx, tid, vH)
	case lH.IsNil():
		child(t.Arena.At(parentH), dir).Store(tx, uint64(rH))
		t.Reclaim(tx, tid, vH)
	case rH.IsNil():
		child(t.Arena.At(parentH), dir).Store(tx, uint64(lH))
		t.Reclaim(tx, tid, vH)
	default:
		t.removeTwoChildren(tx, tid, vH, rH)
	}
}

// removeTwoChildren overwrites vH's key with its successor's and extracts
// the successor node. Every node on the path from the victim through the
// successor — whose subtree regions are the only ones the upward key move
// invalidates — is revoked so resumed traversals in that region restart.
func (t *Internal) removeTwoChildren(tx *stm.Tx, tid int, vH, rH arena.Handle) {
	// The victim's key changes: holds on it become unsafe.
	t.Revoke(tx, vH)
	// Walk to the leftmost descendant of the right child, revoking the
	// path as we go (this is the multi-Revoke cost Figure 6 studies).
	parentOfL := vH
	lH := rH
	for {
		next := t.LoadLink(tx, tid, lH, &t.Arena.At(lH).left)
		if next.IsNil() {
			break
		}
		t.Revoke(tx, lH)
		parentOfL = lH
		lH = next
	}
	l := t.Arena.At(lH)
	// Move the successor's key up, then splice the successor out by
	// promoting its right child.
	t.Arena.At(vH).key.Store(tx, t.LoadWord(tx, tid, lH, &l.key))
	promoted := uint64(t.LoadLink(tx, tid, lH, &l.right))
	if parentOfL == vH {
		t.Arena.At(vH).right.Store(tx, promoted)
	} else {
		t.Arena.At(parentOfL).left.Store(tx, promoted)
	}
	// The extracted node ends the revoked path and is reclaimed.
	t.Reclaim(tx, tid, lH)
}

// Snapshot implements sets.Set via an in-order walk (quiescence required).
func (t *Internal) Snapshot() []uint64 {
	var out []uint64
	var walk func(h arena.Handle)
	walk = func(h arena.Handle) {
		if h.IsNil() {
			return
		}
		n := t.Arena.At(h)
		walk(arena.Handle(n.left.Raw()))
		out = append(out, n.key.Raw())
		walk(arena.Handle(n.right.Raw()))
	}
	walk(arena.Handle(t.Arena.At(t.root).left.Raw()))
	return out
}

// ValidateBST checks the BST invariant over the whole tree (test helper;
// quiescence required).
func (t *Internal) ValidateBST() bool {
	ok := true
	var walk func(h arena.Handle, lo, hi uint64)
	walk = func(h arena.Handle, lo, hi uint64) {
		if h.IsNil() || !ok {
			return
		}
		n := t.Arena.At(h)
		k := n.key.Raw()
		if k < lo || k >= hi {
			ok = false
			return
		}
		walk(arena.Handle(n.left.Raw()), lo, k)
		walk(arena.Handle(n.right.Raw()), k+1, hi)
	}
	walk(arena.Handle(t.Arena.At(t.root).left.Raw()), 0, sent2)
	return ok
}
