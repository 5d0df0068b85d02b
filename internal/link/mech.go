package link

import (
	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/reclaim"
	"hohtx/internal/stm"
)

// link is one mechanism's side of the window protocol. Base dispatches
// through it once per window boundary, never per node visited.
type link interface {
	// start returns the position the thread's previous window held, if
	// the mechanism can still vouch for it.
	start(tx *stm.Tx, tid int) (arena.Handle, bool)
	// hold attaches the thread's link to h for the next window, releasing
	// the hold this window resumed from (held).
	hold(tx *stm.Tx, tid int, held bool, h arena.Handle, word uint64)
	// terminal drops the hold at operation end.
	terminal(tx *stm.Tx, tid int, held bool)
	// reclaim disposes of the node h the transaction unlinked.
	reclaim(tx *stm.Tx, tid int, h arena.Handle)
	// drop releases a hold from outside any transaction.
	drop(tid int)
}

// newLink builds the mechanism for b.Mode.
func newLink[N any](b *Base[N]) link {
	switch b.Mode {
	case ModeRR:
		return rrLink[N]{b, b.rr}
	case ModeTMHP, ModeTMHE:
		return hazardLink[N]{b, b.scheme}
	case ModeTMVBR:
		return vbrLink[N]{b}
	case ModeREF:
		return refLink[N]{b}
	case ModeER:
		return erLink[N]{htmLink[N]{b}}
	default:
		return htmLink[N]{b}
	}
}

// tidArg encodes a tid as a hook argument.
func tidArg(tid int) uint64 { return uint64(int64(tid)) }

// rrLink: a revocable reservation on the window-start node. Removers
// revoke before freeing at the commit point, so reclamation is precise.
type rrLink[N any] struct {
	b  *Base[N]
	rr core.Reservation
}

func (l rrLink[N]) start(tx *stm.Tx, tid int) (arena.Handle, bool) {
	// Nil, released, revoked, or (relaxed) spuriously lost: restart.
	if r := l.rr.Get(tx, tid); r != 0 {
		return arena.Handle(r), true
	}
	return arena.Nil, false
}

func (l rrLink[N]) hold(tx *stm.Tx, tid int, held bool, h arena.Handle, word uint64) {
	if held {
		l.rr.Release(tx, tid)
	}
	l.rr.Reserve(tx, tid, uint64(h))
	if word != l.b.threads[tid].word {
		tx.OnCommitCall(l.b.wordHook, tidArg(tid), 0, word)
	}
}

func (l rrLink[N]) terminal(tx *stm.Tx, tid int, held bool) {
	if held {
		l.rr.Release(tx, tid)
	}
}

func (l rrLink[N]) reclaim(tx *stm.Tx, tid int, h arena.Handle) {
	l.rr.Revoke(tx, uint64(h))
	l.b.free(tx, tid, h)
}

func (l rrLink[N]) drop(tid int) {
	l.b.RT.AtomicT(tid, func(tx *stm.Tx) { l.rr.Release(tx, tid) })
}

// htmLink: no link at all; every operation is one transaction, so no
// transaction ever resumes at a node and frees are immediate.
type htmLink[N any] struct{ b *Base[N] }

func (htmLink[N]) start(*stm.Tx, int) (arena.Handle, bool)       { return arena.Nil, false }
func (htmLink[N]) hold(*stm.Tx, int, bool, arena.Handle, uint64) {}
func (htmLink[N]) terminal(*stm.Tx, int, bool)                   {}
func (htmLink[N]) drop(int)                                      {}

func (l htmLink[N]) reclaim(tx *stm.Tx, tid int, h arena.Handle) { l.b.free(tx, tid, h) }

// free frees h at the commit point.
func (b *Base[N]) free(tx *stm.Tx, tid int, h arena.Handle) {
	tx.OnCommitCall(b.freeHook, tidArg(tid), uint64(h), 0)
}

// retire marks h dead and hands it to the deferred scheme at the commit
// point, stamped with the thread's operation count.
func (b *Base[N]) retire(tx *stm.Tx, tid int, h arena.Handle) {
	b.dead(b.Arena.At(h)).Store(tx, 1)
	tx.OnCommitCall(b.retireHook, tidArg(tid), uint64(h), b.threads[tid].ops)
}

// isDead loads h's dead mark through the guard.
func (b *Base[N]) isDead(tx *stm.Tx, tid int, h arena.Handle) bool {
	return b.LoadWord(tx, tid, h, b.dead(b.Arena.At(h))) != 0
}

// holdAt makes h, with resume word w, the thread's start at commit.
func (b *Base[N]) holdAt(tx *stm.Tx, tid int, h arena.Handle, w uint64) {
	tx.OnCommitCall(b.startHook, tidArg(tid), uint64(h), w)
}

// endAt drops the thread's start (and hazard slots) at commit.
func (b *Base[N]) endAt(tx *stm.Tx, tid int) {
	tx.OnCommitCall(b.endHook, tidArg(tid), 0, 0)
}

// hazardLink: TMHP and TMHE. The thread keeps its start handle locally
// and publishes it through the scheme's Protect(tid, slot, h) — a hazard
// pointer or an era reservation — alternating two slots so the previous
// window's protection drops only once the next one's is committed. The
// resume protocol is in the package comment.
type hazardLink[N any] struct {
	b      *Base[N]
	scheme reclaim.Scheme
}

func (l hazardLink[N]) start(tx *stm.Tx, tid int) (arena.Handle, bool) {
	s := l.b.threads[tid].start
	// A removed start is still pinned by our hazard, so its dead flag is
	// trustworthy.
	if s.IsNil() || l.b.isDead(tx, tid, s) {
		return arena.Nil, false
	}
	return s, true
}

func (l hazardLink[N]) hold(tx *stm.Tx, tid int, _ bool, h arena.Handle, word uint64) {
	l.scheme.Protect(tid, l.b.threads[tid].parity&1, h)
	// Ordering re-check; see the protocol note in the package comment.
	_ = l.b.isDead(tx, tid, h)
	tx.OnCommitCall(l.b.hazardHook, tidArg(tid), uint64(h), word)
}

func (l hazardLink[N]) terminal(tx *stm.Tx, tid int, _ bool) { l.b.endAt(tx, tid) }

func (l hazardLink[N]) reclaim(tx *stm.Tx, tid int, h arena.Handle) { l.b.retire(tx, tid, h) }

func (l hazardLink[N]) drop(tid int) {
	l.b.threads[tid].start = arena.Nil
	l.scheme.ClearSlots(tid)
}

// vbrLink: TMVBR. Nothing pins the start handle between windows; resume
// revalidates it (see the package comment).
type vbrLink[N any] struct{ b *Base[N] }

func (l vbrLink[N]) start(tx *stm.Tx, tid int) (arena.Handle, bool) {
	s := l.b.threads[tid].start
	if s.IsNil() || !l.b.Arena.Live(s) {
		// Freed, and possibly recycled into a different incarnation.
		return arena.Nil, false
	}
	// Deliberately unguarded: the node may be freed (and poisoned) right
	// here, and the generation check below, not the sanitizer, decides
	// whether the value may be used.
	dead := l.b.dead(l.b.Arena.At(s)).Load(tx)
	if !l.b.Arena.Live(s) || dead != 0 {
		return arena.Nil, false
	}
	return s, true
}

func (l vbrLink[N]) hold(tx *stm.Tx, tid int, _ bool, h arena.Handle, word uint64) {
	l.b.holdAt(tx, tid, h, word)
}

func (l vbrLink[N]) terminal(tx *stm.Tx, tid int, _ bool) { l.b.endAt(tx, tid) }

func (l vbrLink[N]) reclaim(tx *stm.Tx, tid int, h arena.Handle) { l.b.retire(tx, tid, h) }

func (l vbrLink[N]) drop(tid int) { l.b.threads[tid].start = arena.Nil }

// refLink: REF. Window-boundary nodes carry a transactional reference
// count; a removed node is freed by whichever of its remover and its last
// holder drops the count to zero.
type refLink[N any] struct{ b *Base[N] }

func (l refLink[N]) start(tx *stm.Tx, tid int) (arena.Handle, bool) {
	s := l.b.threads[tid].start
	if s.IsNil() {
		return arena.Nil, false
	}
	if l.b.isDead(tx, tid, s) {
		// Give back our count on the removed node and restart.
		l.decrement(tx, tid, s)
		return arena.Nil, false
	}
	return s, true
}

func (l refLink[N]) hold(tx *stm.Tx, tid int, held bool, h arena.Handle, word uint64) {
	rc := l.b.rc(l.b.Arena.At(h))
	rc.Store(tx, l.b.LoadWord(tx, tid, h, rc)+1)
	if held {
		l.decrement(tx, tid, l.b.threads[tid].start)
	}
	l.b.holdAt(tx, tid, h, word)
}

func (l refLink[N]) terminal(tx *stm.Tx, tid int, held bool) {
	if held {
		l.decrement(tx, tid, l.b.threads[tid].start)
	}
	l.b.endAt(tx, tid)
}

func (l refLink[N]) reclaim(tx *stm.Tx, tid int, h arena.Handle) {
	l.b.dead(l.b.Arena.At(h)).Store(tx, 1)
	if l.b.LoadWord(tx, tid, h, l.b.rc(l.b.Arena.At(h))) == 0 {
		l.b.free(tx, tid, h)
	}
	// Otherwise the last window-holder's decrement frees it.
}

func (l refLink[N]) drop(tid int) {
	l.b.RT.AtomicT(tid, func(tx *stm.Tx) { l.terminal(tx, tid, true) })
}

// decrement drops one reference count from h, freeing it at commit if it
// reaches zero on a logically deleted node.
func (l refLink[N]) decrement(tx *stm.Tx, tid int, h arena.Handle) {
	rc := l.b.rc(l.b.Arena.At(h))
	v := l.b.LoadWord(tx, tid, h, rc) - 1
	rc.Store(tx, v)
	if v == 0 && l.b.isDead(tx, tid, h) {
		l.b.free(tx, tid, h)
	}
}

// erLink: ER. One unbounded transaction per operation inside an epoch
// bracket (Base.Begin); removals mark and retire through the epochs.
type erLink[N any] struct{ htmLink[N] }

func (l erLink[N]) reclaim(tx *stm.Tx, tid int, h arena.Handle) { l.b.retire(tx, tid, h) }
