// Package list implements the paper's linked-list based concurrent sets
// (§4.1, §4.2): hand-over-hand transactional singly and doubly linked
// lists with revocable reservations, plus the three comparator modes the
// evaluation uses — whole-operation transactions (the HTM baseline),
// hand-over-hand with hazard-pointer deferred reclamation (TMHP), and
// hand-over-hand with transactional reference counting (REF) — and the
// post-2017 deferred comparators DESIGN.md §14 describes: hazard eras
// (TMHE) and version-based reclamation (TMVBR). The window protocol and
// every mechanism live in package link; this package is the traversal.
//
// All variants share one node layout and one arena, so differences in the
// figures come from the synchronization/reclamation mechanism, not from
// memory layout.
package list

import (
	"hohtx/internal/arena"
	"hohtx/internal/link"
	"hohtx/internal/pad"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// node is the shared node layout. Every field is a transactional cell;
// recycled nodes are re-initialized with transactional stores only (see
// the arena package comment for why). The trailing pad keeps concurrent
// transactions on neighboring nodes from false-sharing version locks.
type node struct {
	key  stm.Word
	next stm.Word // arena.Handle bits; 0 = nil
	prev stm.Word // doubly linked list only
	dead stm.Word // deferred modes' and REF's logical-deletion mark
	rc   stm.Word // REF reference count
	_    pad.Line
}

// threadState is the list's own per-thread scratch (the link state lives
// in link.Base).
type threadState struct {
	marks []uint64 // ModeER: read marks of the last W spine nodes

	// Grow-only batch scratch (see applyBatch): the result and visit-order
	// buffers are reused across this thread's batches, so steady-state
	// Apply allocates nothing.
	batchOut   []sets.Result
	batchOrder []int
	_          pad.Line
}

// List is the singly linked set (Listing 5).
type List struct {
	*link.Base[node]
	head    arena.Handle
	threads []threadState
}

var _ sets.Set = (*List)(nil)
var _ sets.MemoryReporter = (*List)(nil)

// New constructs a singly linked list set. The zero Config window means
// W = 8, and the zero profile the paper's list setting: HTM simulation
// with serial fallback after 2 failed attempts.
func New(cfg link.Config) *List { return newList(cfg, "singly") }

// newList builds a list whose mode is checked against family's support.
func newList(cfg link.Config, family string) *List {
	b := link.New(cfg, link.Layout[node]{
		Family: family, Attempts: 2, Window: 8, Scans: true,
		Dead:   func(n *node) *stm.Word { return &n.dead },
		RC:     func(n *node) *stm.Word { return &n.rc },
		Retire: retireNode,
		Poison: poisonNode,
	})
	l := &List{Base: b, threads: make([]threadState, b.Threads())}
	if b.Mode == link.ModeER {
		for i := range l.threads {
			l.threads[i].marks = make([]uint64, b.Window().W)
		}
	}
	l.head = l.sentinel()
	return l
}

// sentinel allocates a chain root. Sentinels are allocated fresh (never
// shared before the constructor returns), so non-transactional Init is
// safe here and only here.
func (l *List) sentinel() arena.Handle {
	h := l.Arena.Alloc(0)
	n := l.Arena.At(h)
	n.key.Init(0)
	n.next.Init(0)
	n.prev.Init(0)
	n.dead.Init(0)
	n.rc.Init(0)
	return h
}

// Lookup implements sets.Set.
func (l *List) Lookup(tid int, key uint64) bool {
	res, _ := l.apply(tid, key, false,
		func(tx *stm.Tx, prevH, currH arena.Handle) bool { return true },
		func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
	)
	return res
}

// Insert implements sets.Set.
func (l *List) Insert(tid int, key uint64) bool {
	res, _ := l.apply(tid, key, false,
		func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
		func(tx *stm.Tx, prevH, currH arena.Handle) bool {
			l.insertSingly(tx, tid, key, prevH, currH)
			return true
		},
	)
	return res
}

// Remove implements sets.Set.
func (l *List) Remove(tid int, key uint64) bool {
	res, _ := l.apply(tid, key, false,
		func(tx *stm.Tx, prevH, currH arena.Handle) bool {
			l.unlinkAndReclaim(tx, tid, prevH, currH)
			return true
		},
		func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
	)
	return res
}

// insertSingly links a new node holding key between prevH and its
// successor currH (no back link) and returns it.
func (l *List) insertSingly(tx *stm.Tx, tid int, key uint64, prevH, currH arena.Handle) arena.Handle {
	nh := l.allocNode(tx, tid, key, currH, arena.Nil)
	l.Arena.At(prevH).next.Store(tx, uint64(nh))
	return nh
}

// allocNode allocates and transactionally initializes a node holding key
// with successor nextH and (for the doubly linked list) predecessor prevH,
// returning its handle. If the transaction aborts the node is returned to
// the arena.
func (l *List) allocNode(tx *stm.Tx, tid int, key uint64, nextH, prevH arena.Handle) arena.Handle {
	nh := l.Alloc(tx, tid)
	n := l.Arena.At(nh)
	// Transactional stores: the slot may be recycled, and some doomed
	// reader may still hold a stale handle to it (see package arena).
	n.key.Store(tx, key)
	n.next.Store(tx, uint64(nextH))
	n.prev.Store(tx, uint64(prevH))
	n.dead.Store(tx, 0)
	n.rc.Store(tx, 0)
	return nh
}

// unlinkAndReclaim removes currH (whose predecessor is prevH) from the
// list and reclaims it according to the list's mode. For ModeRR this is
// Listing 5's λfound for Remove: unlink, Revoke, then free at the commit
// point — precise reclamation.
func (l *List) unlinkAndReclaim(tx *stm.Tx, tid int, prevH, currH arena.Handle) {
	curr := l.Arena.At(currH)
	l.Arena.At(prevH).next.Store(tx, uint64(l.LoadLink(tx, tid, currH, &curr.next)))
	if l.Mode == link.ModeER {
		// Re-store the removed node's next (same value: a version bump
		// only). Writers that traversed through currH retain its next in
		// their (un-released) read suffix, so this write is what makes a
		// racing insert-after-currH or remove-of-successor abort even
		// though the writes to our predecessor were early-released.
		curr.next.Store(tx, uint64(l.LoadLink(tx, tid, currH, &curr.next)))
	}
	l.Reclaim(tx, tid, currH)
}

// Snapshot implements sets.Set. Callers must ensure quiescence.
func (l *List) Snapshot() []uint64 {
	var out []uint64
	for h := arena.Handle(l.Arena.At(l.head).next.Raw()); !h.IsNil(); {
		n := l.Arena.At(h)
		out = append(out, n.key.Raw())
		h = arena.Handle(n.next.Raw())
	}
	return out
}
