package skiplist

import (
	"hohtx/internal/arena"
	"hohtx/internal/stm"
)

// Traversal engine.
//
// Searches descend from the head's top level, advancing right while the
// next key is smaller and dropping a level otherwise. Window cuts reserve
// the current node and stash the current level in thread-local state;
// resuming from a reserved node at a remembered level is a correct search
// continuation because the node is live (not revoked), its key is
// immutable, and every key greater than it is reachable from it.
//
// Updates need predecessor sets, which must be collected inside the
// transaction that performs the update: an insert of height h stops
// descending at level h so predecessor collection for levels h-1..0 runs
// in the final transaction, and a remove finishes the descent from its
// first match in one transaction. A remove that resumed *below* the
// victim's top level cannot see the predecessors above it; it restarts
// with a single uncut traversal (rare: it requires a window cut to have
// landed under the victim's tower).

// searchCtx carries one window transaction's traversal frame.
type searchCtx struct {
	tx    *stm.Tx
	tid   int
	curr  arena.Handle
	level int
	steps int
}

// advanceResult reports why a descent stopped.
type advanceResult uint8

const (
	// advMatched: the next node at the frame's level holds the key; the
	// frame points at its predecessor at that level.
	advMatched advanceResult = iota
	// advStopped: the frame is at the stop level and cannot advance
	// (next key is greater or nil). With stopLevel 0 this means absent.
	advStopped
	// advCut: the window budget is exhausted at a cuttable level.
	advCut
)

// run descends toward key until a terminal condition. The frame never
// drops below stopLevel, and never cuts below noCutBelow.
func (s *SkipList) run(c *searchCtx, key uint64, budget, noCutBelow, stopLevel int) advanceResult {
	for {
		n := s.Arena.At(c.curr)
		nextH := s.LoadLink(c.tx, c.tid, c.curr, &n.next[c.level])
		if !nextH.IsNil() {
			nk := s.LoadWord(c.tx, c.tid, nextH, &s.Arena.At(nextH).key)
			if nk == key {
				return advMatched
			}
			if nk < key {
				if c.steps >= budget && c.level >= noCutBelow {
					return advCut
				}
				c.curr = nextH
				c.steps++
				continue
			}
		}
		if c.level <= stopLevel {
			return advStopped
		}
		c.level--
	}
}

// windowStart resolves the traversal origin for one transaction: the
// held node at the level stashed as the link's resume word, or the head
// at the top level.
func (s *SkipList) windowStart(tx *stm.Tx, tid int) (arena.Handle, int, bool) {
	if st, held := s.Start(tx, tid, s.head); held {
		return st, int(s.Word(tid)), true
	}
	return s.head, MaxHeight - 1, false
}

// cutWindow attaches the frame's position, with its level, to the thread
// for the next transaction to resume from.
func (s *SkipList) cutWindow(c *searchCtx, held bool) {
	s.Hold(c.tx, c.tid, held, c.curr, uint64(c.level))
}

// release drops the hold at operation end, or abandons a resumed position
// mid-transaction so the operation's next attempt restarts from the head.
func (s *SkipList) release(c *searchCtx, held bool) {
	s.Terminal(c.tx, c.tid, held)
}

// budgetFor computes a window budget (unbounded for ModeHTM or when the
// operation demands a single uncut traversal).
func (s *SkipList) budgetFor(tx *stm.Tx, held, full bool) int {
	if full {
		return int(^uint(0) >> 1)
	}
	return s.Budget(tx, held)
}

// Lookup implements sets.Set.
func (s *SkipList) Lookup(tid int, key uint64) bool {
	s.Begin(tid, 1)
	var res bool
	for {
		done := false
		s.RT.AtomicT(tid, func(tx *stm.Tx) {
			done, res = false, false
			start, level, held := s.windowStart(tx, tid)
			c := &searchCtx{tx: tx, tid: tid, curr: start, level: level}
			switch s.run(c, key, s.budgetFor(tx, held, false), 0, 0) {
			case advMatched:
				res = true
				s.release(c, held)
				done = true
			case advStopped:
				res = false
				s.release(c, held)
				done = true
			case advCut:
				s.cutWindow(c, held)
			}
		})
		if done {
			return res
		}
	}
}

// collectPreds advances the frame along each level from c.level down to 0,
// recording the final predecessor per level in preds. It returns false
// (duplicate found) if a node with the key is encountered; stopAt, when
// non-Nil, treats that node as the search boundary instead (the remove
// path, where the "duplicate" is the victim itself).
func (s *SkipList) collectPreds(c *searchCtx, key uint64, stopAt arena.Handle, preds *[MaxHeight]arena.Handle) bool {
	for l := c.level; l >= 0; l-- {
		c.level = l
		for {
			n := s.Arena.At(c.curr)
			nextH := s.LoadLink(c.tx, c.tid, c.curr, &n.next[l])
			if nextH.IsNil() || nextH == stopAt {
				break
			}
			nk := s.LoadWord(c.tx, c.tid, nextH, &s.Arena.At(nextH).key)
			if nk == key {
				if stopAt.IsNil() {
					return false // duplicate insert
				}
				break // defensive: distinct node with equal key cannot exist
			}
			if nk > key {
				break
			}
			c.curr = nextH
		}
		preds[l] = c.curr
	}
	return true
}

// Insert implements sets.Set. The new node's height is drawn before the
// traversal so window cuts can stop at the level where predecessor
// collection must begin.
func (s *SkipList) Insert(tid int, key uint64) bool {
	s.Begin(tid, 1)
	h := s.randHeight(tid)
	var res bool
	for {
		done := false
		s.RT.AtomicT(tid, func(tx *stm.Tx) {
			done, res = false, false
			start, level, held := s.windowStart(tx, tid)
			c := &searchCtx{tx: tx, tid: tid, curr: start, level: level}
			budget := s.budgetFor(tx, held, false)

			// Phase 1: hand-over-hand down to level h (cuts allowed, the
			// descent stops at level h so phase 2 owns h-1..0).
			if c.level >= h {
				switch s.run(c, key, budget, h, h) {
				case advMatched:
					res = false // key exists (met at a level >= h)
					s.release(c, held)
					done = true
					return
				case advCut:
					s.cutWindow(c, held)
					return
				case advStopped:
					c.level-- // step below the boundary into phase 2
				}
			}
			// Phase 2: collect predecessors for levels min(c.level, h-1)
			// down to 0 and link, all in this transaction.
			var preds [MaxHeight]arena.Handle
			for l := h - 1; l > c.level; l-- {
				// Resume level was already below h-1 (possible only on
				// the first window when h == MaxHeight): the untouched
				// upper levels' predecessor is the traversal origin.
				preds[l] = c.curr
			}
			if !s.collectPreds(c, key, arena.Nil, &preds) {
				res = false // duplicate at a level below h
				s.release(c, held)
				done = true
				return
			}
			nh := s.Alloc(tx, tid)
			n := s.Arena.At(nh)
			n.key.Store(tx, key)
			n.height.Store(tx, uint64(h))
			n.dead.Store(tx, 0)
			for l := 0; l < h; l++ {
				p := s.Arena.At(preds[l])
				n.next[l].Store(tx, uint64(s.LoadLink(tx, tid, preds[l], &p.next[l])))
				p.next[l].Store(tx, uint64(nh))
			}
			res = true
			s.release(c, held)
			done = true
		})
		if done {
			return res
		}
	}
}

// Remove implements sets.Set. A fresh traversal first meets the victim at
// its top level, from which the victim's predecessors at every level are
// collected and the unlink + Revoke + free happen in one transaction (a
// single Revoke per removal, independent of height). A resumed traversal
// can meet the victim below its top; in that case the hold is dropped and
// the operation retries with one uncut traversal.
func (s *SkipList) Remove(tid int, key uint64) bool {
	s.Begin(tid, 1)
	var res bool
	full := false
	for {
		done := false
		s.RT.AtomicT(tid, func(tx *stm.Tx) {
			done, res = false, false
			start, level, held := s.windowStart(tx, tid)
			if full {
				start, level, held = s.head, MaxHeight-1, false
			}
			c := &searchCtx{tx: tx, tid: tid, curr: start, level: level}
			switch s.run(c, key, s.budgetFor(tx, held, full), 0, 0) {
			case advStopped:
				res = false
				s.release(c, held)
				done = true
				return
			case advCut:
				s.cutWindow(c, held)
				return
			case advMatched:
			}
			victim := s.LoadLink(tx, tid, c.curr, &s.Arena.At(c.curr).next[c.level])
			if victim.IsNil() {
				// Only a poisoned link defuses to Nil after advMatched; this
				// attempt is doomed — restart with a full descent.
				s.release(c, held)
				full = true
				return
			}
			v := s.Arena.At(victim)
			vh := int(s.LoadWord(tx, tid, victim, &v.height))
			if c.level != vh-1 {
				// Met the victim under its tower (resumed traversal):
				// restart with a full descent that sees its top.
				s.release(c, held)
				full = true
				return // done=false: retry
			}
			var preds [MaxHeight]arena.Handle
			if !s.collectPreds(c, key, victim, &preds) {
				panic("skiplist: unreachable: duplicate key beside victim")
			}
			for l := 0; l < vh; l++ {
				s.Arena.At(preds[l]).next[l].Store(tx, uint64(s.LoadLink(tx, tid, victim, &v.next[l])))
			}
			s.Reclaim(tx, tid, victim)
			res = true
			s.release(c, held)
			done = true
		})
		if done {
			return res
		}
	}
}
