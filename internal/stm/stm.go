// Package stm implements the word-based software transactional memory that
// serves as this repository's substrate for hand-over-hand transactions and
// revocable reservations.
//
// The design follows TL2 (Dice, Shalev, Shavit, DISC 2006): every
// transactional cell carries its own version lock, a global version clock
// orders commits, reads are validated against the transaction's read
// version as they happen (giving opacity), and writes are buffered and
// applied at commit under per-cell locks. Two departures from classic TL2:
//
//   - Read-version extension (as in TinySTM): a read that observes a cell
//     newer than the transaction's snapshot revalidates the read set against
//     the current clock and, if the snapshot is still consistent, advances
//     it instead of aborting. This markedly reduces false aborts in the
//     lookup-heavy workloads of the paper's evaluation.
//
//   - An HTM simulation profile. The paper evaluates on Intel TSX through
//     GCC's language-level TM, which (a) bounds transactional state by the
//     L1 cache and (b) falls back to a global serial mode after a fixed
//     number of speculative failures. Profile.Capacity models (a) as a limit
//     on read-set plus write-set entries; Profile.MaxAttempts models (b);
//     the serial fallback runs under an exclusive lock that blocks all
//     concurrent commits, reproducing the program-wide serialization the
//     paper observes when tree transactions exceed hardware capacity (§5.4).
//
// The TM provides a total order on transactions and opaque reads, which is
// exactly the system model the paper's correctness arguments assume (§3,
// "System Model"). Strong isolation is not provided and not required.
//
// All cells must be used with a single Runtime; a cell's version words are
// meaningful only relative to the clock of the Runtime whose transactions
// access it.
package stm

import (
	"sync"
	"sync/atomic"

	"hohtx/internal/obs"
	"hohtx/internal/pad"
)

// AbortCause classifies why a speculative transaction attempt failed.
// Exposing abort causes to the data structure is the capability the paper
// names as future work ("GCC TM does not expose the fact of an abort, or
// its cause, to the programmer", §5.2); this repository uses it to build
// the adaptive window tuner exercised in examples/tuner.
type AbortCause uint8

const (
	// CauseNone means the attempt did not abort.
	CauseNone AbortCause = iota
	// CauseReadConflict: a read observed a cell that is locked or newer
	// than the snapshot and the snapshot could not be extended.
	CauseReadConflict
	// CauseValidation: commit-time read-set validation failed.
	CauseValidation
	// CauseWriteLock: commit could not acquire a write lock.
	CauseWriteLock
	// CauseCapacity: the transaction exceeded the profile's capacity limit
	// (the HTM-simulation analog of an L1 overflow).
	CauseCapacity
	// CauseExplicit: user code called Tx.Restart.
	CauseExplicit

	numCauses
)

// String returns the short human-readable name of the cause.
func (c AbortCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseReadConflict:
		return "read-conflict"
	case CauseValidation:
		return "validation"
	case CauseWriteLock:
		return "write-lock"
	case CauseCapacity:
		return "capacity"
	case CauseExplicit:
		return "explicit"
	default:
		return "unknown"
	}
}

// Profile configures the speculation policy of a Runtime. The zero value
// means "pure STM": unlimited capacity and practically unlimited speculative
// attempts before serializing.
type Profile struct {
	// Capacity bounds len(readSet)+len(writeSet) per transaction. Zero
	// means unlimited. A transaction that exceeds the bound aborts with
	// CauseCapacity and immediately falls back to serial mode (retrying a
	// deterministic overflow is pointless, which matches how GCC's HTM
	// fallback treats capacity aborts).
	Capacity int
	// MaxAttempts is the number of speculative attempts before the
	// transaction falls back to the global serial lock. Zero means a
	// large default (64). The paper's GCC setup uses 2 for the list
	// experiments and 8 for the trees.
	MaxAttempts int
	// SpinBase scales the bounded exponential backoff between attempts,
	// in iterations of a pause loop. Zero means a small default.
	SpinBase int
	// YieldShift, when nonzero, makes each transactional access yield the
	// processor with probability 1/(1<<YieldShift). This simulates
	// preemption-driven interleaving so that transactions overlap in
	// logical time even on a single-core host: without it, a 1-CPU box
	// runs every microsecond-scale transaction to completion between
	// scheduler quanta and the conflict dynamics the paper studies never
	// materialize. The benchmark harness enables it automatically when
	// GOMAXPROCS == 1 (see EXPERIMENTS.md); yields never occur while
	// commit-time locks are held.
	YieldShift uint8
	// ClockPolicy selects how writing commits interact with the global
	// version clock (see clock.go). The zero value is ClockGV1.
	ClockPolicy ClockPolicy
}

// HTMProfile returns the profile used to model the paper's hardware TM:
// capacity-limited speculation with fallback to serial mode after attempts
// failures (the paper uses 2 for lists, 8 for trees).
func HTMProfile(attempts int) Profile {
	return Profile{Capacity: 448, MaxAttempts: attempts}
}

// Runtime owns the global version clock, the serial-fallback lock and the
// abort statistics for one transactional domain. Data structures create one
// Runtime each so that benchmarks of different structures do not share
// clocks or serial locks.
type Runtime struct {
	// clock is the published version clock: the only value transactions
	// use as a snapshot bound. Even; under GV1 it advances by 2 per
	// writing commit, under GV5 it is advanced lazily by readers (see
	// clock.go).
	clock atomic.Uint64
	_     pad.Line
	// clockTarget is the GV5 version frontier: fast-path writers derive
	// write versions from it without modifying it; serial and slow-path
	// writers advance it with an Add. Unused (always 0) under GV1.
	clockTarget atomic.Uint64
	_           pad.Line
	prof        Profile
	// commitLock orders serial-mode transactions against speculative
	// commits: speculative writers commit under its distributed reader
	// side (one padded slot per transaction in the common case), serial
	// transactions run entirely under its exclusive side. Speculative
	// reads take no lock; they are protected by version validation alone.
	commitLock bravoLock
	stats      statCounters
	// txs holds one reusable Tx per thread id, grown on first use of a
	// tid (copy-on-write under txMu, so lookups take no lock). Tids are
	// leased slots — no two goroutines run transactions under one tid at
	// once — so a tid's Tx is never shared, and its read/write sets and
	// hook queues keep their high-water capacity across transactions.
	txs  atomic.Pointer[[]*Tx]
	txMu sync.Mutex
	// obs, when non-nil, receives sampled latency/lifecycle observations
	// (see obs.go). Nil keeps the hot path at one pointer check.
	obs *obs.TxProbe
}

// NewRuntime returns a Runtime with the given speculation profile.
func NewRuntime(p Profile) *Runtime {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 64
	}
	if p.SpinBase == 0 {
		p.SpinBase = 16
	}
	rt := &Runtime{prof: p}
	rt.commitLock.arm()
	return rt
}

// txFor returns the Tx that transactions on tid run in. Unknown callers
// (tid < 0) get a fresh one each time.
func (rt *Runtime) txFor(tid int) *Tx {
	if tid < 0 {
		return newTx(rt)
	}
	if p := rt.txs.Load(); p != nil && tid < len(*p) && (*p)[tid] != nil {
		return (*p)[tid]
	}
	rt.txMu.Lock()
	defer rt.txMu.Unlock()
	var cur []*Tx
	if p := rt.txs.Load(); p != nil {
		cur = *p
	}
	if tid < len(cur) && cur[tid] != nil {
		return cur[tid]
	}
	next := make([]*Tx, max(len(cur), tid+1))
	copy(next, cur)
	next[tid] = newTx(rt)
	rt.txs.Store(&next)
	return next[tid]
}

// Profile reports the runtime's speculation profile.
func (rt *Runtime) Profile() Profile { return rt.prof }

// now returns the current (even) value of the published version clock.
func (rt *Runtime) now() uint64 { return rt.clock.Load() }
