package list

import (
	"hohtx/internal/arena"
	"hohtx/internal/link"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Ordered iteration.
//
// Ascend is a natural application of revocable reservations beyond point
// operations: the iterator's position *is* a reservation. Each step runs
// one window transaction that re-acquires the position via Get, emits up
// to W keys, and re-reserves where it stopped. If a concurrent Remove
// revokes the position (or a relaxed scheme loses it spuriously), the
// iterator re-navigates by key — it searches for the first key greater
// than the last one delivered — so iteration always makes progress and
// never touches freed memory, while removals remain free to reclaim
// immediately.
//
// The result is weakly consistent, like sync.Map.Range: each window sees
// a consistent snapshot, keys are delivered in ascending order exactly
// once, and a key is guaranteed to appear iff it was present for the whole
// iteration. This is the strongest guarantee hand-over-hand structures
// admit without giving up small transactions.

// Ascend implements sets.Ascender: it calls fn for each key >= from, in
// ascending order, until fn returns false or the list is exhausted. Only
// ModeRR and ModeHTM support it (ModeHTM runs the whole scan as one
// transaction); the deferred-reclamation modes return
// sets.ErrScanUnsupported — they have no revocable cursor position, so a
// windowed scan could dereference reclaimed nodes.
//
// The reservation hold is released no matter how the scan ends: clean
// exhaustion, an early fn → false, or a panicking consumer (the release
// runs in a defer, so the panic propagates with no hold left behind — a
// leaked hold would make the holder's next operation resume from a stale
// position and skip smaller keys).
func (l *List) Ascend(tid int, from uint64, fn func(key uint64) bool) error {
	if !l.CanAscend() {
		return sets.ErrScanUnsupported
	}
	l.Begin(tid, 1)
	last := from // next key to deliver must be >= last
	var batch []uint64
	holding := false // a hold survives outside the current window
	windows, renavs := 0, 0
	defer func() {
		if holding {
			l.DropHold(tid)
		}
		l.NoteScan(windows, renavs)
	}()
	for {
		done := false
		resumed := false
		batch = batch[:0]
		l.RT.AtomicT(tid, func(tx *stm.Tx) {
			done = false
			batch = batch[:0]
			startH, held := l.Start(tx, tid, l.head)
			resumed = held
			budget := l.Budget(tx, held)
			// Navigate to the first key >= last (no-op when resuming at a
			// reserved node, whose key is < last by construction).
			prevH := startH
			currH := arena.Handle(l.Arena.At(prevH).next.Load(tx))
			steps := 0
			for !currH.IsNil() {
				n := l.Arena.At(currH)
				k := n.key.Load(tx)
				if k >= last {
					batch = append(batch, k)
				}
				prevH = currH
				currH = arena.Handle(n.next.Load(tx))
				steps++
				if steps >= budget {
					// Cut even with an empty batch: re-navigation after a
					// revocation must also stay windowed. The hold lands
					// on a node with key < last, and the next window
					// resumes the filtered walk from it.
					break
				}
			}
			if currH.IsNil() {
				// Reached the end: this window completes the scan.
				l.Terminal(tx, tid, held)
				done = true
				return
			}
			// Hand over at prevH (the node holding the last batched key).
			l.Hold(tx, tid, held, prevH, 0)
		})
		windows++
		if windows > 1 && !resumed {
			// This window did not find the previous hold: a writer revoked
			// it (or a relaxed reservation lost it), and the cursor had to
			// re-navigate from the head by key.
			renavs++
		}
		holding = !done
		for _, k := range batch {
			if !fn(k) {
				return nil
			}
			last = k + 1
		}
		if done {
			return nil
		}
	}
}

// CanAscend reports whether this list's mode supports the reservation
// cursor (the serve layer advertises scan capability through it).
func (l *List) CanAscend() bool { return l.Mode == link.ModeRR || l.Mode == link.ModeHTM }
