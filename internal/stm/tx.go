package stm

import (
	"runtime"
	"sync/atomic"
)

// readLockSpins bounds how long a read spins on a cell that is locked by a
// committing writer before aborting. Commits hold cell locks only for the
// short write-back window, so a small bound suffices.
const readLockSpins = 64

// wsMapThreshold is the write-set size beyond which read-own-writes lookup
// switches from linear scan to a map. Hand-over-hand transactions write a
// handful of cells; only whole-operation (HTM-baseline) transactions on big
// structures ever cross this.
const wsMapThreshold = 24

// abortSig is the panic sentinel used internally to unwind an aborting
// transaction out of user code. It never escapes Atomic.
type abortSig struct{}

// rentry is one read-set record: the cell's version word and the version
// observed when the value was read.
type rentry struct {
	m   *atomic.Uint64
	ver uint64
}

// applier is a deferred write-back action for non-Word cells.
type applier interface{ apply() }

// wentry is one write-set record. Exactly one of dst (Word write) or obj
// (typed cell write) is set. prev caches the pre-lock version during commit
// so locks can be released on failure and self-locks recognized during
// read-set validation.
type wentry struct {
	m    *atomic.Uint64
	dst  *atomic.Uint64
	val  uint64
	obj  applier
	prev uint64
}

// Tx is one transaction attempt's context. A Tx is only valid inside the
// closure passed to Runtime.Atomic and must not be retained, shared between
// goroutines, or used after the closure returns.
type Tx struct {
	rt     *Runtime
	rv     uint64 // snapshot (read) version; even
	serial bool   // true when running under the exclusive serial lock
	cause  AbortCause

	rs     []rentry
	rsHead int    // entries below this index are early-released
	rsBase uint64 // logical index of rs[0] (survives compaction)
	ws     []wentry
	wmap   map[*atomic.Uint64]int // lazily built past wsMapThreshold

	commitHooks []txHook
	abortHooks  []txHook

	rng        uint64 // xorshift state for backoff jitter
	extensions uint64 // snapshot extensions performed (stats)
	clockCASes uint64 // clock-advance CAS attempts performed (stats)
	slowPaths  uint64 // commit-lock slow-path acquisitions (stats)
	slotHash   uint64 // per-Tx BRAVO commit-slot hash (fixed at creation)

	tid      int32          // caller's thread id for observability (-1 unknown)
	conflict *atomic.Uint64 // version word that caused the last abort, if known
}

// txSeq hands out distinct slot hashes to per-thread transactions; consecutive
// values multiplied by the golden-ratio constant spread across the BRAVO
// table's index bits (Fibonacci hashing).
var txSeq atomic.Uint64

func newTx(rt *Runtime) *Tx {
	h := txSeq.Add(1) * 0x9e3779b97f4a7c15 // odd multiplier: never 0
	return &Tx{
		rt: rt,
		rs: make([]rentry, 0, 256),
		ws: make([]wentry, 0, 32),
		// Seeded per Tx: each tid keeps its Tx, so a shared seed would
		// draw the same scatter and backoff sequence on every thread.
		rng:      h,
		slotHash: h,
	}
}

// reset prepares the Tx for a fresh attempt.
func (tx *Tx) reset(serial bool) {
	tx.rv = tx.rt.now()
	tx.serial = serial
	tx.cause = CauseNone
	tx.conflict = nil
	tx.rs = tx.rs[:0]
	tx.rsHead = 0
	tx.rsBase = 0
	tx.ws = tx.ws[:0]
	if tx.wmap != nil {
		clear(tx.wmap)
	}
	tx.commitHooks = tx.commitHooks[:0]
	tx.abortHooks = tx.abortHooks[:0]
}

// Serial reports whether this attempt runs in the serialized fallback mode.
// Data structure code can consult it to skip contention-avoidance work that
// only matters under speculation.
func (tx *Tx) Serial() bool { return tx.serial }

// Runtime returns the runtime this transaction belongs to.
func (tx *Tx) Runtime() *Runtime { return tx.rt }

// Restart aborts the current attempt and re-executes the transaction from
// the beginning (possibly in serial mode, per the runtime's profile).
func (tx *Tx) Restart() {
	tx.abort(CauseExplicit)
}

// txHook is one deferred effect. Two shapes share the queue: a plain
// closure (fn) and an argument-carrying call fn3(a, b, c). The latter
// exists so per-operation hot paths can register reclamation work against
// a function value bound once at construction time — a closure capturing
// the operation's (tid, handle, stamp) heap-allocates on every removal,
// while fn3 carries them inline and allocates nothing.
type txHook struct {
	fn      func()
	fn3     func(a, b, c uint64)
	a, b, c uint64
}

func (h *txHook) run() {
	if h.fn != nil {
		h.fn()
		return
	}
	h.fn3(h.a, h.b, h.c)
}

// OnCommit registers fn to run exactly once, after this transaction has
// committed and released all commit-time locks. The paper observes that
// memory management inside transactions hurts performance; the data
// structures in this repository queue node frees here, which keeps
// reclamation *immediate* (it happens at the commit point, before the
// enclosing operation returns) while staying outside speculation.
func (tx *Tx) OnCommit(fn func()) {
	tx.commitHooks = append(tx.commitHooks, txHook{fn: fn})
}

// OnCommitCall is OnCommit's zero-allocation form: fn(a, b, c) runs at
// the commit point. Pass a function value bound once (a struct field, a
// method value hoisted out of the hot path), not a fresh closure — the
// arguments travel inline, so nothing escapes per call.
func (tx *Tx) OnCommitCall(fn func(a, b, c uint64), a, b, c uint64) {
	tx.commitHooks = append(tx.commitHooks, txHook{fn3: fn, a: a, b: b, c: c})
}

// OnAbort registers fn to run if this attempt aborts (it is discarded on
// commit). Used to return speculatively allocated nodes to the allocator.
func (tx *Tx) OnAbort(fn func()) {
	tx.abortHooks = append(tx.abortHooks, txHook{fn: fn})
}

// OnAbortCall is OnAbort's zero-allocation form (see OnCommitCall).
func (tx *Tx) OnAbortCall(fn func(a, b, c uint64), a, b, c uint64) {
	tx.abortHooks = append(tx.abortHooks, txHook{fn3: fn, a: a, b: b, c: c})
}

// abort unwinds the attempt with the given cause.
func (tx *Tx) abort(c AbortCause) {
	tx.cause = c
	panic(abortSig{})
}

// checkCapacity enforces the HTM-simulation footprint bound. Early-released
// reads no longer occupy tracked state (in real HTM early release is
// impossible, which is precisely the paper's motivation — callers using
// ReadMark/ForgetReadsBefore have opted out of the HTM model).
func (tx *Tx) checkCapacity() {
	if c := tx.rt.prof.Capacity; c > 0 && !tx.serial && len(tx.rs)-tx.rsHead+len(tx.ws) >= c {
		tx.abort(CauseCapacity)
	}
}

// ReadMark returns a position in the transaction's read history for use
// with ForgetReadsBefore.
func (tx *Tx) ReadMark() uint64 { return tx.rsBase + uint64(len(tx.rs)) }

// ForgetReadsBefore early-releases every read recorded before mark: those
// locations are dropped from conflict detection, so later writers to them
// no longer abort this transaction (Herlihy et al.'s early release [17],
// the software-only alternative to hand-over-hand windows that §1 of the
// paper contrasts revocable reservations with). Releasing a read weakens
// opacity for the released prefix — callers own the correctness argument,
// exactly as they do with hand-over-hand windows.
func (tx *Tx) ForgetReadsBefore(mark uint64) {
	if mark <= tx.rsBase {
		return
	}
	h := int(mark - tx.rsBase)
	if h > len(tx.rs) {
		h = len(tx.rs)
	}
	if h > tx.rsHead {
		tx.rsHead = h
	}
	// Amortized compaction keeps the slice from growing without bound on
	// long traversals.
	if tx.rsHead >= 256 && tx.rsHead*2 >= len(tx.rs) {
		n := copy(tx.rs, tx.rs[tx.rsHead:])
		tx.rs = tx.rs[:n]
		tx.rsBase += uint64(tx.rsHead)
		tx.rsHead = 0
	}
}

// maybeYield simulates a preemption point per the profile's YieldShift.
func (tx *Tx) maybeYield() {
	if s := tx.rt.prof.YieldShift; s != 0 && tx.nextRand()&(1<<s-1) == 0 {
		runtime.Gosched()
	}
}

// recordRead appends a validated read to the read set.
func (tx *Tx) recordRead(m *atomic.Uint64, ver uint64) {
	tx.checkCapacity()
	tx.rs = append(tx.rs, rentry{m: m, ver: ver})
	tx.maybeYield()
}

// extend slides the snapshot forward past the observed cell version,
// aborting if any prior read has been overwritten (which would make the
// extended snapshot inconsistent). On success subsequent reads accept
// versions up to the new snapshot. Under GV1 the published clock already
// covers every committed version, so the lazy-clock advance never fires;
// the advance call is hoisted here so extendTo stays inlinable at the
// read-path call sites.
func (tx *Tx) extend(observed uint64) {
	newRv := tx.rt.now()
	if newRv < observed {
		newRv = tx.advanceClock(observed)
	}
	tx.extendTo(newRv)
}

// extendTo validates the read set against the new snapshot bound newRv and
// adopts it. newRv must be at or above every version the caller has
// observed (extend establishes that; see clock.go for why it matters).
func (tx *Tx) extendTo(newRv uint64) {
	for i := tx.rsHead; i < len(tx.rs); i++ {
		if tx.rs[i].m.Load() != tx.rs[i].ver {
			tx.conflict = tx.rs[i].m
			tx.abort(CauseReadConflict)
		}
	}
	tx.rv = newRv
	tx.extensions++
}

// findWrite looks up a pending Word write to the cell with version word m.
func (tx *Tx) findWrite(m *atomic.Uint64) (uint64, bool) {
	if i, ok := tx.lookupWrite(m); ok {
		return tx.ws[i].val, true
	}
	return 0, false
}

// findWriteObj looks up a pending typed-cell write.
func (tx *Tx) findWriteObj(m *atomic.Uint64) (applier, bool) {
	if i, ok := tx.lookupWrite(m); ok {
		return tx.ws[i].obj, true
	}
	return nil, false
}

func (tx *Tx) lookupWrite(m *atomic.Uint64) (int, bool) {
	if len(tx.ws) == 0 {
		return 0, false
	}
	if tx.wmap != nil && len(tx.ws) > wsMapThreshold {
		i, ok := tx.wmap[m]
		return i, ok
	}
	// Scan backwards: recently written cells are the likeliest re-reads.
	for i := len(tx.ws) - 1; i >= 0; i-- {
		if tx.ws[i].m == m {
			return i, true
		}
	}
	return 0, false
}

// addWrite records a write-set entry, deduplicating by cell so commit never
// tries to lock the same cell twice.
func (tx *Tx) addWrite(e wentry) {
	if i, ok := tx.lookupWrite(e.m); ok {
		e.prev = tx.ws[i].prev
		tx.ws[i] = e
		return
	}
	tx.checkCapacity()
	tx.maybeYield()
	tx.ws = append(tx.ws, e)
	if len(tx.ws) > wsMapThreshold {
		if tx.wmap == nil {
			tx.wmap = make(map[*atomic.Uint64]int, 4*wsMapThreshold)
		}
		if len(tx.wmap) == 0 {
			for i := range tx.ws {
				tx.wmap[tx.ws[i].m] = i
			}
		} else {
			tx.wmap[e.m] = len(tx.ws) - 1
		}
	}
}

func (tx *Tx) writeWord(m, dst *atomic.Uint64, val uint64) {
	tx.addWrite(wentry{m: m, dst: dst, val: val})
}

func (tx *Tx) writeObj(m *atomic.Uint64, obj applier) {
	tx.addWrite(wentry{m: m, obj: obj})
}

// commit attempts to make the transaction's writes visible atomically.
// It returns false (with tx.cause set) if the transaction must be retried.
// Serial-mode commits cannot fail: the exclusive serial lock guarantees no
// concurrent commit has interleaved since the snapshot was taken.
func (tx *Tx) commit() bool {
	if len(tx.ws) == 0 {
		// Read-only: every read was validated against a consistent
		// snapshot when it happened, so there is nothing left to check.
		return true
	}
	rt := tx.rt
	slot := -1
	if !tx.serial {
		// Exclude serial transactions for the duration of the commit. The
		// common case claims one padded slot in the distributed lock's
		// visible-readers table (see biaslock.go).
		if slot = rt.commitLock.rlockFast(tx.slotHash); slot < 0 {
			rt.commitLock.rlockSlow(&tx.slowPaths)
		}
		defer rt.commitLock.runlock(slot)
	}

	// Phase 1: lock the write set (bounded: CAS-or-fail, so no deadlock).
	for i := range tx.ws {
		e := &tx.ws[i]
		cur := e.m.Load()
		if cur&lockedBit != 0 || !e.m.CompareAndSwap(cur, cur|lockedBit) {
			tx.releaseLocks(i)
			tx.cause = CauseWriteLock
			tx.conflict = e.m
			return false
		}
		e.prev = cur
	}

	// GV1's unique-version fetch stays inline; the lazy policy's
	// publication dance lives in writeVersion (clock.go).
	var wv uint64
	if rt.prof.ClockPolicy == ClockGV1 {
		wv = rt.clock.Add(2)
	} else {
		wv = tx.writeVersion(slot)
	}

	// Phase 2: validate the read set, unless no other transaction can have
	// committed since our snapshot (TL2's rv+2 == wv fast path — valid
	// only under GV1, where write versions are unique).
	if rt.prof.ClockPolicy != ClockGV1 || wv != tx.rv+2 {
		for i := tx.rsHead; i < len(tx.rs); i++ {
			r := &tx.rs[i]
			cur := r.m.Load()
			if cur == r.ver {
				continue
			}
			if cur == r.ver|lockedBit && tx.ownsLock(r.m, r.ver) {
				continue
			}
			tx.releaseLocks(len(tx.ws))
			tx.cause = CauseValidation
			tx.conflict = r.m
			return false
		}
	}

	// Phase 3: write back and release each lock with the new version. GV5
	// write versions are not unique, so keep each cell's version strictly
	// increasing by bumping past the pre-lock version on collision (never
	// fires under GV1).
	for i := range tx.ws {
		e := &tx.ws[i]
		if e.obj != nil {
			e.obj.apply()
		} else {
			e.dst.Store(e.val)
		}
		nv := wv
		if nv <= e.prev {
			nv = e.prev + 2
		}
		e.m.Store(nv)
	}
	return true
}

// ownsLock reports whether the locked cell m is locked by this transaction
// with pre-lock version prev.
func (tx *Tx) ownsLock(m *atomic.Uint64, prev uint64) bool {
	if i, ok := tx.lookupWrite(m); ok {
		return tx.ws[i].prev == prev
	}
	return false
}

// releaseLocks restores the pre-lock versions of ws[0:n].
func (tx *Tx) releaseLocks(n int) {
	for i := 0; i < n; i++ {
		tx.ws[i].m.Store(tx.ws[i].prev)
	}
}

// Rand returns a cheap pseudo-random value from the transaction's private
// generator. It is not a transactional effect (it advances even if the
// transaction aborts), which is exactly what contention-randomization
// helpers like scatter want.
func (tx *Tx) Rand() uint64 { return tx.nextRand() }

// nextRand steps the transaction's xorshift generator (backoff jitter and
// the scatter helper both draw from it).
func (tx *Tx) nextRand() uint64 {
	x := tx.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	tx.rng = x
	return x
}

// pauseSink absorbs the spin loop's accumulator so the compiler cannot
// prove the loop effect-free and eliminate it. The store is unreachable in
// practice (the accumulator never hits all-ones), so pause never writes a
// shared cache line.
var pauseSink atomic.Uint64

// pause burns a few cycles proportional to the spin count, yielding the
// processor occasionally so single-core runs make progress.
func pause(spins int) {
	if spins&7 == 7 {
		runtime.Gosched()
		return
	}
	s := pauseSink.Load()
	for i := 0; i < 4<<uint(spins&7); i++ {
		s += s<<1 | uint64(i)
	}
	if s == ^uint64(0) {
		pauseSink.Store(s)
	}
}
