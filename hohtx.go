// Package hohtx is the public API of this repository: concurrent ordered
// sets built from hand-over-hand transactions with revocable reservations,
// as introduced in "Hand-Over-Hand Transactions with Precise Memory
// Reclamation" (Zhou, Luchangco, Spear; SPAA 2017).
//
// # What you get
//
// Four set implementations over uint64 keys — singly and doubly linked
// lists and internal and external unbalanced binary search trees — that
// split long traversals into small transactions linked by *revocable
// reservations*. Removals reclaim node memory the instant the removing
// operation commits (precise reclamation): there is no grace period, no
// retire list, and the library can prove it (LiveNodes tracks allocation
// exactly).
//
// # Quick start
//
//	set := hohtx.NewListSet(hohtx.Config{Threads: 8})
//	set.Register(workerID)              // once per worker
//	set.Insert(workerID, 42)
//	ok := set.Lookup(workerID, 42)      // true
//	set.Remove(workerID, 42)            // node memory is free on return
//
// Each concurrent worker must use a distinct id in [0, Threads). Keys must
// be ≥ 1 and at most MaxKey.
//
// # More goroutines than worker ids
//
// Programs that cannot pin one goroutine per worker id — servers, worker
// fleets, anything with dynamic concurrency — lease ids from a pool
// instead of owning them:
//
//	pool := hohtx.NewLeasePool(set, hohtx.LeaseConfig{Slots: 8})
//	// from any number of goroutines:
//	pool.Do(ctx, func(tid int) { set.Insert(tid, 42) })
//	pool.Close() // waits for leases, flushes every worker id
//
// The pool handles Register/Finish, queues fairly under contention, and
// exposes backpressure statistics; cmd/hohserver builds a TCP front end
// on it. See the internal/serve package and DESIGN.md §9.
//
// # Choosing a reservation scheme
//
// The six schemes trade Revoke cost against Get precision (§3 of the
// paper). The relaxed schemes (XO, SO, V) revoke in O(1) and win nearly
// every benchmark; RRVersioned (RR-V) additionally lets any number of
// threads reserve the same node and is the best default together with
// RRExclusive. The strict schemes (FA, DM, SA) never spuriously lose a
// reservation, which makes one extra optimization sound in the doubly
// linked list, but their Revoke visits every thread.
package hohtx

import (
	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/link"
	"hohtx/internal/list"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
	"hohtx/internal/skiplist"
	"hohtx/internal/stm"
	"hohtx/internal/tree"
)

// Set is a concurrent ordered set of uint64 keys; see the package comment
// for the threading contract.
type Set = sets.Set

// MemoryReporter is implemented by every Set in this package: LiveNodes
// is the exact count of allocated nodes, DeferredNodes the count of
// logically-deleted-but-unreclaimed ones (always 0 for the reservation
// mechanisms — that is the paper's point).
type MemoryReporter = sets.MemoryReporter

// Op is one operation of a batch passed to Set.Apply; a batch executes as
// a single transaction (one snapshot, one commit) on every Set this
// package constructs, making it atomic and roughly amortizing the commit
// cost across the ops. Batches whose read/write footprint exceeds the
// transaction capacity still commit atomically, via the serial fallback.
// On a ShardedSet, atomicity narrows to per-shard (see ShardedSet).
type Op = sets.Op

// OpKind selects a batch operation.
type OpKind = sets.OpKind

// Batch op kinds, mirroring the single-op methods.
const (
	OpLookup = sets.OpLookup
	OpInsert = sets.OpInsert
	OpRemove = sets.OpRemove
)

// MaxKey is the largest usable key (the trees reserve the top values for
// sentinels; the lists accept more but a uniform bound keeps code
// portable across structures).
const MaxKey = tree.MaxKey

// Reservation selects one of the paper's six revocable reservation
// implementations.
type Reservation int

const (
	// RRVersioned is RR-V: relaxed, O(1) revoke, unlimited concurrent
	// holders per node. The recommended default.
	RRVersioned Reservation = iota
	// RRExclusive is RR-XO: relaxed, O(1) revoke, one holder per hash
	// slot.
	RRExclusive
	// RRSharedOwner is RR-SO: relaxed, O(A) revoke, up to A holders.
	RRSharedOwner
	// RRFullyAssoc is RR-FA: strict, O(threads) revoke.
	RRFullyAssoc
	// RRDirectMapped is RR-DM: strict, revoke scans one hash bucket.
	RRDirectMapped
	// RRSetAssoc is RR-SA: strict, revoke scans one bucket in each of A
	// arrays.
	RRSetAssoc
)

// kind maps the public enum to the internal implementation registry.
func (r Reservation) kind() core.Kind {
	switch r {
	case RRExclusive:
		return core.KindXO
	case RRSharedOwner:
		return core.KindSO
	case RRFullyAssoc:
		return core.KindFA
	case RRDirectMapped:
		return core.KindDM
	case RRSetAssoc:
		return core.KindSA
	default:
		return core.KindV
	}
}

// String returns the paper's name for the scheme.
func (r Reservation) String() string { return r.kind().String() }

// Config tunes a set. The zero value is usable: 8 threads, RR-V
// reservations, a window of 8 (lists) or 16 (trees), scatter enabled.
type Config struct {
	// Threads is the number of distinct worker ids that will call into
	// the set concurrently.
	Threads int
	// Reservation selects the revocable reservation scheme.
	Reservation Reservation
	// Window is W, the maximum node visits per transaction. Smaller
	// windows abort less under contention, larger ones commit less
	// often; the paper's tuning is 16 up to 4 threads and 8 beyond for
	// lists (§5.2). Zero picks a sensible default.
	Window int
	// NoScatter disables randomizing the first window's length. Leave
	// scattering on unless you are reproducing the paper's ablation.
	NoScatter bool
	// SharedPool routes all node allocation through one contended pool
	// (the paper's "jemalloc-pathology" configuration, Figure 5) instead
	// of per-thread magazines. Only useful for experiments.
	SharedPool bool
	// SerialAfter is the number of failed speculative attempts before an
	// operation's transaction falls back to the serial path — a
	// distributed reader-bias lock, not a single global lock, so
	// speculative commits on other threads keep their fast path while a
	// serialized writer drains (see DESIGN.md "Scalable commit path").
	// Zero uses the paper's settings (2 for lists, 8 for trees).
	SerialAfter int
	// SimulatePreemption injects scheduler yields inside transactions so
	// that they interleave even on a single-core host. Leave it off on
	// real multicore machines; turn it on to study conflict behavior
	// (aborts, revocations, window tuning) where the hardware cannot
	// produce true parallelism.
	SimulatePreemption bool
	// Clock selects the TM global version clock policy. ClockDefault (and
	// ClockGV1) is classic TL2 — every writing commit increments a shared
	// clock; ClockGV5 is the lazy policy, which removes that shared
	// read-modify-write from the commit fast path at the cost of more
	// snapshot extensions on readers. See DESIGN.md ("Scalable commit
	// path") for the trade-off.
	Clock ClockPolicy
}

// ClockPolicy selects the TM global version clock policy; see Config.Clock.
type ClockPolicy int

const (
	// ClockDefault uses the package default, currently GV1.
	ClockDefault ClockPolicy = iota
	// ClockGV1 increments the shared clock on every writing commit (TL2).
	ClockGV1
	// ClockGV5 derives write versions lazily without a shared
	// read-modify-write per commit.
	ClockGV5
)

// stm maps the public enum to the internal policy.
func (c ClockPolicy) stm() stm.ClockPolicy {
	if c == ClockGV5 {
		return stm.ClockGV5
	}
	return stm.ClockGV1
}

// linkConfig maps the public Config onto the structures' shared one.
func (c Config) linkConfig() link.Config {
	out := link.Config{
		Mode:    link.ModeRR,
		RRKind:  c.Reservation.kind(),
		Threads: c.Threads,
		Window:  core.Window{W: c.Window, NoScatter: c.NoScatter},
	}
	if c.SharedPool {
		out.ArenaPolicy = arena.PolicyShared
	}
	if c.SerialAfter > 0 {
		out.Profile = stm.HTMProfile(c.SerialAfter)
	}
	if c.SimulatePreemption {
		out.YieldShift = 5
	}
	out.ClockPolicy = c.Clock.stm()
	return out
}

// NewListSet returns a singly linked list set (best for small key ranges
// and teaching; O(n) operations).
func NewListSet(cfg Config) Set { return list.New(cfg.linkConfig()) }

// NewDoublyListSet returns a doubly linked list set; removals unlink in a
// second, smaller transaction (§4.2), which reduces conflicts under
// write-heavy loads.
func NewDoublyListSet(cfg Config) Set { return list.NewDoubly(cfg.linkConfig()) }

// NewInternalTreeSet returns an unbalanced internal BST set (§4.3).
func NewInternalTreeSet(cfg Config) Set { return tree.NewInternal(cfg.linkConfig()) }

// NewExternalTreeSet returns an unbalanced external BST set; keys live in
// leaves, making removals structurally simple (no successor swaps).
func NewExternalTreeSet(cfg Config) Set { return tree.NewExternal(cfg.linkConfig()) }

// NewHashSet returns a hash set of bucketed hand-over-hand chains — the
// structure the paper's conclusion proposes as the next application of
// revocable reservations. buckets is rounded up to a power of two; size it
// for a small expected load factor (e.g. expected keys / 4).
func NewHashSet(cfg Config, buckets int) Set {
	return list.NewHashTable(cfg.linkConfig(), buckets)
}

// NewSkipListSet returns a skiplist set — the probabilistically balanced
// answer to the paper's "balanced trees" future-work item: O(log n)
// expected operations, one Revoke per removal regardless of node height,
// and precise reclamation throughout.
func NewSkipListSet(cfg Config) Set { return skiplist.New(cfg.linkConfig()) }

// Ascender is implemented by sets that support ordered iteration
// (currently NewListSet, NewDoublyListSet, NewSkipListSet, and
// NewShardedSet over those; the hash set has no global order to
// iterate). Ascend calls fn for each key >= from in ascending order until
// fn returns false; the traversal is hand-over-hand (the iterator's
// position is itself a revocable reservation) and weakly consistent: keys
// present for the whole scan appear exactly once, in strictly ascending
// order, and concurrent removals still reclaim immediately. Variants
// whose reclamation scheme cannot hold a revocable cursor (TMHP, REF, ER
// and the lock-free baselines) return ErrScanUnsupported instead of
// iterating.
type Ascender = sets.Ascender

// ErrScanUnsupported is returned by Ascender.Ascend when the variant
// cannot run a reservation cursor; the serve layer maps it to an
// "ERR scan unsupported" reply instead of crashing.
var ErrScanUnsupported = sets.ErrScanUnsupported

// OrderedMap is an ordered uint64→uint64 map over the external
// hand-over-hand tree with precise reclamation; see NewOrderedMap.
type OrderedMap = tree.Map

// NewOrderedMap constructs an ordered map. It accepts the same Config as
// the sets (window, reservation scheme, allocator policy).
func NewOrderedMap(cfg Config) *OrderedMap {
	return tree.NewMap(cfg.linkConfig())
}

// Tunable is implemented by every Set built by this package: SetWindow
// adjusts the hand-over-hand window size W while the set is in use (0
// restores the configured value). The paper proposes contention-driven
// window tuning as future work; examples/tuner builds it on this knob and
// on StatsOf's abort counts.
type Tunable interface {
	SetWindow(w int)
}

// TxStats summarizes a set's transactional behavior.
type TxStats struct {
	Commits uint64 // committed transactions
	Aborts  uint64 // aborted speculative attempts
	Serial  uint64 // commits that needed the serial fallback

	// Per-cause abort breakdown (sums to Aborts together with the
	// explicit-restart aborts not listed here).
	ReadConflicts  uint64 // reads that hit a newer/locked cell and could not extend
	Validations    uint64 // commit-time read-set validation failures
	WriteLocks     uint64 // commit-time write-lock acquisition failures
	CapacityAborts uint64 // simulated-HTM footprint overflows

	// Commit-path traffic: clock CAS attempts (GV5 only), serial writers
	// that revoked the distributed lock's reader bias, and spin-waits on
	// commit slots. See DESIGN.md ("Scalable commit path").
	ClockCASes      uint64
	BiasRevocations uint64
	WriterWaits     uint64
}

// LeasePool multiplexes any number of goroutines onto a set's fixed
// worker ids: Acquire/Release (or the Do one-liner) lease ids with FIFO
// queueing, bounded waiting and per-Handle slot affinity, and the pool
// owns the Register/Finish lifecycle. See the internal/serve package
// documentation for the full semantics.
type LeasePool = serve.Pool

// LeaseHandle is a pool client with slot affinity; one per goroutine.
type LeaseHandle = serve.Handle

// LeaseConfig parameterizes NewLeasePool. Slots must equal the set's
// Config.Threads.
type LeaseConfig = serve.PoolConfig

// LeaseStats is the pool's backpressure counters.
type LeaseStats = serve.PoolStats

// Lease-pool failure modes, re-exported for errors.Is checks.
var (
	ErrLeaseSaturated = serve.ErrSaturated
	ErrLeaseClosed    = serve.ErrClosed
)

// NewLeasePool builds a worker-slot lease pool over a set constructed
// with cfg.Slots threads. The pool registers every worker id, so callers
// never call Register or Finish themselves; Close flushes all slots.
func NewLeasePool(s Set, cfg LeaseConfig) *LeasePool { return serve.NewPool(s, cfg) }

// ShardedSet hash-partitions keys across N fully independent Set
// instances — each with its own transactional runtime (global version
// clock, serial-fallback lock), allocator, and reclamation — behind the
// ordinary Set interface. Writes to different shards never contend on a
// shared cache line, so sharding scales the write path past the
// single-clock serialization a lone instance tops out at, while every
// per-instance property (opacity, precise reclamation, exact LiveNodes)
// holds per shard and the reported aggregates are exact sums. Snapshot
// merges the shards in ascending key order; Register and Finish fan out
// to every shard, so a worker id (or a LeasePool over the facade) works
// exactly as on a single instance. cmd/hohserver's -shards flag serves
// one of these.
type ShardedSet = serve.Sharded

// NewShardedSet builds a ShardedSet from shards instances produced by the
// build callback — typically closing over this package's constructors:
//
//	set := hohtx.NewShardedSet(4, func(int) hohtx.Set {
//	    return hohtx.NewListSet(hohtx.Config{Threads: 8})
//	})
//
// Every shard must be configured with the same thread count. The shard
// index is passed to build for instrumentation (e.g. naming per-shard
// observability domains); the returned sets must be freshly constructed
// and unshared.
func NewShardedSet(shards int, build func(shard int) Set) *ShardedSet {
	if shards < 1 {
		shards = 1
	}
	parts := make([]Set, shards)
	for i := range parts {
		parts[i] = build(i)
	}
	return serve.NewSharded(parts)
}

// StatsOf extracts transaction statistics from any Set built by this
// package (zero value for foreign implementations).
func StatsOf(s Set) TxStats {
	type reporter interface {
		TxCommits() uint64
		TxAborts() uint64
		TxSerial() uint64
	}
	var out TxStats
	if r, ok := s.(reporter); ok {
		out = TxStats{Commits: r.TxCommits(), Aborts: r.TxAborts(), Serial: r.TxSerial()}
	}
	if r, ok := s.(interface{ TMStats() stm.Stats }); ok {
		st := r.TMStats()
		out.ReadConflicts = st.Aborts[stm.CauseReadConflict]
		out.Validations = st.Aborts[stm.CauseValidation]
		out.WriteLocks = st.Aborts[stm.CauseWriteLock]
		out.CapacityAborts = st.Aborts[stm.CauseCapacity]
		out.ClockCASes = st.ClockCASes
		out.BiasRevocations = st.BiasRevocations
		out.WriterWaits = st.WriterWaits
	}
	return out
}
