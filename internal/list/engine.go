package list

import (
	"hohtx/internal/arena"
	"hohtx/internal/stm"
)

// The hand-over-hand window engine (Listing 5's Apply), shared by the
// singly and doubly linked lists and the hash table's chains. Each
// iteration of the outer loop runs one window transaction; the traversal
// position is carried across transactions by the mode's link (package
// link, whose comment has the resume protocols).

// applyFn is a terminal-phase callback; prevH's successor is currH at the
// transaction's snapshot. For the found callback currH holds the key; for
// the not-found callback currH is the first node with a larger key (or
// Nil) and an insert belongs between prevH and currH.
type applyFn func(tx *stm.Tx, prevH, currH arena.Handle) bool

// apply runs one set operation. If reserveFound is true, a successful
// found-terminal leaves the operation's link attached to currH instead of
// releasing it (phase one of the doubly linked list's two-transaction
// remove, §4.2) and returns currH as target.
func (l *List) apply(tid int, key uint64, reserveFound bool, onFound, onNotFound applyFn) (res bool, target arena.Handle) {
	return l.applyAt(tid, key, l.head, reserveFound, onFound, onNotFound)
}

// applyAt is apply with an explicit traversal root, letting one List's
// machinery serve many independent chains (the hash table's buckets).
func (l *List) applyAt(tid int, key uint64, head arena.Handle, reserveFound bool, onFound, onNotFound applyFn) (res bool, target arena.Handle) {
	if l.Begin(tid, 1) {
		defer l.End(tid)
	}
	// ModeER keeps only the last W spine nodes' reads under conflict
	// detection; everything older is released.
	marks := l.threads[tid].marks
	for {
		done := false
		l.RT.AtomicT(tid, func(tx *stm.Tx) {
			// Reset per attempt: the closure re-runs on abort.
			done = false
			res = false
			target = arena.Nil

			ar := l.Arena
			startH, held := l.Start(tx, tid, head)
			budget := l.Budget(tx, held)
			prevH := startH
			currH := l.LoadLink(tx, tid, prevH, &ar.At(prevH).next)
			steps := 0
			var k uint64
			for !currH.IsNil() {
				if w := len(marks); w > 0 {
					if steps >= w {
						tx.ForgetReadsBefore(marks[steps%w])
					}
					marks[steps%w] = tx.ReadMark()
				}
				k = l.LoadWord(tx, tid, currH, &ar.At(currH).key)
				if k >= key || steps >= budget {
					break
				}
				prevH = currH
				currH = l.LoadLink(tx, tid, currH, &ar.At(currH).next)
				steps++
			}

			switch {
			case !currH.IsNil() && k == key:
				res = onFound(tx, prevH, currH)
				if reserveFound {
					l.Hold(tx, tid, held, currH, 0)
					target = currH
				} else {
					l.Terminal(tx, tid, held)
				}
				done = true
			case currH.IsNil() || k > key:
				res = onNotFound(tx, prevH, currH)
				l.Terminal(tx, tid, held)
				done = true
			default:
				// Budget exhausted mid-traversal: hand over to the next
				// window at currH.
				l.Hold(tx, tid, held, currH, 0)
			}
		})
		if done {
			return res, target
		}
	}
}
