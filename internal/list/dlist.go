package list

import (
	"hohtx/internal/arena"
	"hohtx/internal/link"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// DList is the doubly linked set (§4.2). Traversals are identical to the
// singly linked list; insertions additionally maintain back links; and
// removal exploits them: because a node's predecessor and successor are
// both reachable from the node itself, a Remove can finish its traversal
// by merely *reserving* the found node, commit, and then unlink + revoke
// in a second, much smaller transaction. If that second transaction finds
// the reservation gone, a strict reservation proves a concurrent Remove
// took the same node (return false); a relaxed one cannot distinguish that
// from a spurious invalidation, so the whole operation retries (§4.2).
type DList struct {
	List
}

var _ sets.Set = (*DList)(nil)

// NewDoubly constructs a doubly linked list set. ModeREF and ModeER are
// not supported (the paper drops reference counting after the singly
// linked list experiments, and early release needs a singly linked
// spine).
func NewDoubly(cfg link.Config) *DList {
	return &DList{List: *newList(cfg, "doubly")}
}

// Insert implements sets.Set, maintaining prev links.
func (d *DList) Insert(tid int, key uint64) bool {
	res, _ := d.apply(tid, key, false,
		func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
		func(tx *stm.Tx, prevH, currH arena.Handle) bool {
			d.insertDoubly(tx, tid, key, prevH, currH)
			return true
		},
	)
	return res
}

// insertDoubly links a new node holding key between prevH and currH,
// maintaining both directions, and returns it.
func (d *DList) insertDoubly(tx *stm.Tx, tid int, key uint64, prevH, currH arena.Handle) arena.Handle {
	nh := d.allocNode(tx, tid, key, currH, prevH)
	d.Arena.At(prevH).next.Store(tx, uint64(nh))
	if !currH.IsNil() {
		d.Arena.At(currH).prev.Store(tx, uint64(nh))
	}
	return nh
}

// phase-2 outcomes of the two-transaction remove.
const (
	removedOp = iota
	lostOp
	retryOp
)

// Remove implements sets.Set.
func (d *DList) Remove(tid int, key uint64) bool {
	if !d.Mode.Windowed() {
		// Single-transaction removal; the traversal and unlink commit
		// together, so no hold is involved.
		res, _ := d.apply(tid, key, false,
			func(tx *stm.Tx, prevH, currH arena.Handle) bool {
				d.removeDoublyInTx(tx, tid, prevH, currH)
				return true
			},
			func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
		)
		return res
	}
	for {
		// Phase 1: locate the node and leave our hold attached to it.
		found, _ := d.apply(tid, key, true,
			func(tx *stm.Tx, prevH, currH arena.Handle) bool { return true },
			func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
		)
		if !found {
			return false
		}
		switch d.removePhase2(tid) {
		case removedOp:
			return true
		case lostOp:
			// A concurrent Remove of the same node committed first; this
			// operation linearizes immediately after it.
			return false
		}
		// retryOp: a relaxed reservation was spuriously invalidated —
		// retry the entire operation from the head.
	}
}

// removePhase2 resumes from the hold phase 1 left on the target and, if
// the link still vouches for it, unlinks and reclaims it in its own
// transaction. A lost hold proves a racing remove took the node when the
// link is strict (a strict reservation: only the node's remover revokes
// it; the deferred modes: the dead mark); a relaxed reservation may have
// lost it spuriously, so the operation retries.
func (d *DList) removePhase2(tid int) int {
	out := retryOp
	d.RT.AtomicT(tid, func(tx *stm.Tx) {
		target, held := d.Start(tx, tid, arena.Nil)
		// The operation ends in this transaction whatever it finds.
		d.Terminal(tx, tid, true)
		if !held {
			out = retryOp
			if d.StrictHold() {
				out = lostOp
			}
			return
		}
		d.removeDoublyInTx(tx, tid, arena.Nil, target)
		out = removedOp
	})
	return out
}

// removeDoublyInTx unlinks currH through its own links and reclaims it;
// prevH is unused (the back link names the predecessor).
func (d *DList) removeDoublyInTx(tx *stm.Tx, tid int, _, currH arena.Handle) {
	d.unlinkDoubly(tx, tid, currH)
	d.Reclaim(tx, tid, currH)
}

// unlinkDoubly splices currH out using its own links; the predecessor is
// always a real node (ultimately the head sentinel).
func (d *DList) unlinkDoubly(tx *stm.Tx, tid int, currH arena.Handle) {
	curr := d.Arena.At(currH)
	p := d.LoadLink(tx, tid, currH, &curr.prev)
	nx := d.LoadLink(tx, tid, currH, &curr.next)
	if p.IsNil() {
		// Only a poisoned prev defuses to Nil (real predecessors bottom out
		// at the head sentinel); this attempt is doomed, skip the splice.
		return
	}
	d.Arena.At(p).next.Store(tx, uint64(nx))
	if !nx.IsNil() {
		d.Arena.At(nx).prev.Store(tx, uint64(p))
	}
}

// ValidateLinks checks prev/next symmetry over the whole list; it is a
// test helper and requires quiescence.
func (d *DList) ValidateLinks() bool {
	prev := d.head
	for h := arena.Handle(d.Arena.At(d.head).next.Raw()); !h.IsNil(); {
		n := d.Arena.At(h)
		if arena.Handle(n.prev.Raw()) != prev {
			return false
		}
		prev = h
		h = arena.Handle(n.next.Raw())
	}
	return true
}
