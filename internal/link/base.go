package link

import (
	"sync/atomic"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/obs"
	"hohtx/internal/pad"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Config parameterizes a hand-over-hand structure of any family.
type Config struct {
	// Mode selects the mechanism; default ModeRR.
	Mode Mode
	// RRKind selects the reservation implementation for ModeRR.
	RRKind core.Kind
	// Threads is the number of distinct tids that will operate on the
	// structure. Required.
	Threads int
	// Window is the hand-over-hand window policy. The paper's best
	// settings are family and thread-count dependent (Figure 4); zero
	// takes the family's default. Ignored (unbounded) for ModeHTM.
	Window core.Window
	// Profile overrides the TM speculation profile. The zero value means
	// the paper's setting for the family: HTM simulation with serial
	// fallback after 2 failed attempts for the lists, 8 for the trees
	// and the skiplist (§5).
	Profile stm.Profile
	// ArenaPolicy selects the allocator free-list policy (Figure 5).
	ArenaPolicy arena.Policy
	// ScanThreshold is the retire batch size for the deferred modes
	// (hazard scans, epoch advances, the VBR self-tick cadence); default
	// 64, the paper's best-performing setting.
	ScanThreshold int
	// Assoc sizes the set-associative reservation metadata (see
	// core.Config).
	Assoc int
	// YieldShift enables simulated preemption inside transactions (see
	// stm.Profile.YieldShift); it composes with whatever Profile is in
	// effect.
	YieldShift uint8
	// ClockPolicy selects the TM global-clock policy (see
	// stm.Profile.ClockPolicy); like YieldShift it composes with whatever
	// Profile is in effect.
	ClockPolicy stm.ClockPolicy
	// Guard enables the arena use-after-free sanitizer: freed nodes are
	// poisoned and any *committed* read of a dead node is reported (see
	// guard.go). Off by default; the enabled-mode overhead is one
	// predictable branch per traversal load.
	Guard bool
	// GuardSink receives guard violations instead of the default panic
	// (torture harnesses collect events; tests assert on them). Only
	// meaningful with Guard set.
	GuardSink func(arena.GuardEvent)
	// Obs, when non-nil, threads the observability domain through every
	// layer the structure owns: commit/backoff latency and abort
	// attribution on the TM runtime, free→reuse distances on the arena,
	// hold times on the reservation, retire→free delays and a
	// deferred-depth gauge on the deferred-reclamation scheme. Nil keeps
	// every instrumented site at a single nil/branch check.
	Obs *obs.Domain
}

// Layout is what a structure family tells the link layer about itself:
// its defaults, and how to reach the cells of its node type N.
type Layout[N any] struct {
	// Family names the structure family in the support table.
	Family string
	// Attempts is the family's default serial-fallback attempt count.
	Attempts int
	// Window is the family's default window size W.
	Window int
	// Scans registers the Ascend window/re-navigation histograms.
	Scans bool
	// Dead returns the node's logical-deletion mark (deferred modes, REF).
	Dead func(*N) *stm.Word
	// RC returns the node's reference count (REF only).
	RC func(*N) *stm.Word
	// Retire lifts every cell version of a freed node to the fence (see
	// stm.Word.Retire); installed for every mode.
	Retire func(n *N, ver uint64)
	// Poison overwrites every value word of a freed node with
	// arena.PoisonWord (guard mode).
	Poison func(*N)
}

// thread is one tid's link state, padded against false sharing.
type thread struct {
	start  arena.Handle // held resume node (deferred modes and REF)
	word   uint64       // the structure's resume word (skiplist level)
	parity int          // hazard-slot alternation (TMHP/TMHE)
	ops    uint64       // operation stamp for reclamation-delay accounting
	_      pad.Line
}

// Base is the state every hand-over-hand structure shares: the arena, the
// TM runtime, the window policy, the per-thread link state and the
// mechanism behind the window protocol. Structures embed *Base, so its
// statistics and capability methods are theirs.
type Base[N any] struct {
	// Arena holds every node of the structure.
	Arena *arena.Arena[N]
	// RT is the structure's TM runtime.
	RT *stm.Runtime
	// Mode is the configured mechanism.
	Mode Mode

	link    link
	rr      core.Reservation    // ModeRR
	scheme  reclaim.Scheme      // deferred modes
	he      *reclaim.HazardEras // ModeTMHE birth stamps
	ep      *reclaim.Epochs     // ModeER bracket
	dead    func(*N) *stm.Word
	rc      func(*N) *stm.Word
	guard   bool // Config.Guard: loads check for the poison sentinel
	threads []thread

	win         core.Window
	winOverride atomic.Int32
	obs         *obs.Domain
	scanWindows *obs.Histogram // window txs per Ascend (nil without Obs)
	scanRenavs  *obs.Histogram // re-navigations per Ascend (nil without Obs)

	// Bound commit/abort hooks, created once here and registered on the
	// hot paths via stm.OnCommitCall/OnAbortCall with inline arguments.
	// A fresh closure per operation would heap-allocate on every window
	// cut and removal — allocator traffic the arena's exact books never
	// see, and exactly the GC pressure the paper's Fig. 5 warns distorts
	// reclamation comparisons. Arguments: a = tid (two's complement
	// through uint64), b = arena handle, c = retire stamp or resume word.
	freeHook   func(a, b, c uint64) // Arena.Free(tid, handle)
	retireHook func(a, b, c uint64) // scheme.Retire(tid, handle, stamp)
	startHook  func(a, b, c uint64) // resume at handle b with word c
	wordHook   func(a, b, c uint64) // set the resume word to c
	hazardHook func(a, b, c uint64) // startHook + drop the previous hazard slot
	endHook    func(a, b, c uint64) // drop the hold at operation end
	uafHook    func(a, b, c uint64) // Arena.ReportUAF(tid, handle)
}

// New builds the shared base for one structure instance: runtime, arena
// (with the retire and guard hooks installed), the mechanism for
// cfg.Mode, and the observability wiring. It panics if the family does
// not implement cfg.Mode.
func New[N any](cfg Config, lay Layout[N]) *Base[N] {
	mustSupport(lay.Family, cfg.Mode)
	cfg = cfg.withDefaults(lay.Attempts, lay.Window)
	b := &Base[N]{
		RT: stm.NewRuntime(cfg.Profile),
		Arena: arena.New[N](arena.Config{
			Policy: cfg.ArenaPolicy, Threads: cfg.Threads,
			Guard: cfg.Guard, AccessCheck: cfg.GuardSink,
		}),
		Mode:    cfg.Mode,
		dead:    lay.Dead,
		rc:      lay.RC,
		guard:   cfg.Guard,
		threads: make([]thread, cfg.Threads),
		win:     cfg.Window,
	}
	b.Arena.SetRetire(func(n *N) { lay.Retire(n, b.RT.VersionFence()) })
	if cfg.Guard {
		b.Arena.SetPoison(lay.Poison)
	}
	free := func(tid int, h arena.Handle) { b.Arena.Free(tid, h) }
	switch cfg.Mode {
	case ModeRR:
		b.rr = core.New(cfg.RRKind, core.Config{Threads: cfg.Threads, Assoc: cfg.Assoc})
	case ModeTMHP:
		b.scheme = reclaim.NewHazardPointers(reclaim.HPConfig{
			Threads: cfg.Threads, SlotsPerThread: 2,
			ScanThreshold: cfg.ScanThreshold, Free: free,
		})
	case ModeTMHE:
		b.he = reclaim.NewHazardEras(reclaim.HEConfig{
			Threads: cfg.Threads, SlotsPerThread: 2,
			ScanThreshold: cfg.ScanThreshold, Free: free,
		})
		b.scheme = b.he
	case ModeTMVBR:
		b.scheme = reclaim.NewVBR(reclaim.VBRConfig{
			Threads:   cfg.Threads,
			TickEvery: cfg.ScanThreshold,
			Clock:     b.RT.VersionFence,
			Tick:      b.RT.TickVersionFence,
			Free:      free,
		})
	case ModeER:
		b.ep = reclaim.NewEpochs(cfg.Threads, cfg.ScanThreshold, free)
		b.ep.Guard = cfg.Guard
		b.scheme = b.ep
	}
	if d := cfg.Obs; d != nil {
		b.obs = d
		if lay.Scans {
			b.scanWindows = d.Hist(obs.HistAscendWindows, "txs")
			b.scanRenavs = d.Hist(obs.HistAscendRenavs, "navs")
		}
		b.RT.SetObserver(d.TxProbe())
		b.Arena.SetObserver(d.AllocProbe())
		if b.rr != nil {
			b.rr = core.Observed(b.rr, d.HoldProbe(), cfg.Threads)
		}
		if s := b.scheme; s != nil {
			s.(interface{ SetObserver(*obs.ReclaimProbe) }).SetObserver(d.ReclaimProbe())
			d.Gauge("deferred_depth", func() uint64 { return s.Stats().Deferred })
			d.Gauge("peak_deferred", func() uint64 { return s.Stats().PeakDeferred })
		}
	}
	b.bindHooks()
	b.link = newLink(b)
	return b
}

// withDefaults fills unset fields; attempts and window are the family's
// paper settings.
func (c Config) withDefaults(attempts, window int) Config {
	if c.Threads <= 0 {
		c.Threads = 8
	}
	if c.Profile == (stm.Profile{}) {
		c.Profile = stm.HTMProfile(attempts)
	}
	if c.YieldShift != 0 {
		c.Profile.YieldShift = c.YieldShift
	}
	if c.ClockPolicy != 0 {
		c.Profile.ClockPolicy = c.ClockPolicy
	}
	if c.Mode == ModeHTM {
		c.Window = core.Window{} // unbounded: one transaction per op
	} else if c.Window.W == 0 {
		c.Window.W = window
	}
	if c.ScanThreshold <= 0 {
		c.ScanThreshold = reclaim.DefaultScanThreshold
	}
	return c
}

// bindHooks creates the bound commit/abort hooks (see the field comment).
func (b *Base[N]) bindHooks() {
	b.freeHook = func(a, h, _ uint64) { b.Arena.Free(int(int64(a)), arena.Handle(h)) }
	if b.scheme != nil {
		b.retireHook = func(a, h, c uint64) { b.scheme.Retire(int(int64(a)), arena.Handle(h), c) }
	}
	b.startHook = func(a, h, c uint64) {
		ts := &b.threads[int(int64(a))]
		ts.start, ts.word = arena.Handle(h), c
	}
	b.wordHook = func(a, _, c uint64) { b.threads[int(int64(a))].word = c }
	b.hazardHook = func(a, h, c uint64) {
		tid := int(int64(a))
		ts := &b.threads[tid]
		ts.start, ts.word = arena.Handle(h), c
		// Drop the previous window's hazard: the slot this window did not
		// publish in. Only this hook advances parity, so it still names
		// the slot the committed window published.
		b.scheme.Protect(tid, ts.parity&1^1, arena.Nil)
		ts.parity++
	}
	b.uafHook = func(a, h, _ uint64) { b.Arena.ReportUAF(int(int64(a)), arena.Handle(h)) }
	b.endHook = func(a, _, _ uint64) {
		tid := int(int64(a))
		b.threads[tid].start = arena.Nil
		if b.scheme != nil {
			b.scheme.ClearSlots(tid)
		}
	}
}

// Start resolves where a window transaction begins: the position the
// thread's previous window held, if the mechanism can still vouch for
// it (held = true), or root otherwise.
func (b *Base[N]) Start(tx *stm.Tx, tid int, root arena.Handle) (arena.Handle, bool) {
	if h, ok := b.link.start(tx, tid); ok {
		return h, true
	}
	return root, false
}

// Threads reports the number of tids the structure was built for.
func (b *Base[N]) Threads() int { return len(b.threads) }

// Window reports the configured window policy (before any SetWindow
// override).
func (b *Base[N]) Window() core.Window { return b.win }

// Word returns the resume word the thread's last held window stored
// (meaningful only after Start reported held).
func (b *Base[N]) Word(tid int) uint64 { return b.threads[tid].word }

// Hold attaches the thread's link to h (releasing the hold this window
// started from, if held) so the next window resumes there; word is the
// structure's resume word for that position, restored by Word.
func (b *Base[N]) Hold(tx *stm.Tx, tid int, held bool, h arena.Handle, word uint64) {
	b.link.hold(tx, tid, held, h, word)
}

// Terminal releases the thread's hold at operation end — or abandons a
// resumed position whose ancestors an update needs, so the next window
// restarts from the root.
func (b *Base[N]) Terminal(tx *stm.Tx, tid int, held bool) {
	b.link.terminal(tx, tid, held)
}

// Reclaim disposes of h, which the transaction has just unlinked: revoke
// holds on it and free it at the commit point (precise modes), or mark it
// dead and retire it at the commit point (deferred modes).
func (b *Base[N]) Reclaim(tx *stm.Tx, tid int, h arena.Handle) {
	b.link.reclaim(tx, tid, h)
}

// Revoke invalidates every thread's hold on h without reclaiming it (the
// internal tree's successor path, whose keys move upward). Only
// revocable reservations hold positions another thread must be denied;
// for every other mode it is a no-op.
func (b *Base[N]) Revoke(tx *stm.Tx, h arena.Handle) {
	if b.rr != nil {
		b.rr.Revoke(tx, uint64(h))
	}
}

// StrictHold reports whether a failed Start after a Hold proves a
// concurrent removal of the held node (strict reservations and the
// deferred modes' dead mark) rather than a spurious loss (relaxed
// reservations).
func (b *Base[N]) StrictHold() bool { return b.rr == nil || b.rr.Strict() }

// DropHold releases a hold from outside any window transaction (an
// iterator's early or panicking exit).
func (b *Base[N]) DropHold(tid int) { b.link.drop(tid) }

// Alloc allocates a node slot for the transaction: the slot returns to
// the arena if the attempt aborts, and under ModeTMHE it carries its
// birth era before it is published (an aborted alloc leaves a stale
// entry; the slot's next incarnation restamps it). Recycled slots must
// be initialized with transactional stores (see package arena).
func (b *Base[N]) Alloc(tx *stm.Tx, tid int) arena.Handle {
	h := b.Arena.Alloc(tid)
	if b.he != nil {
		b.he.StampAlloc(h)
	}
	tx.OnAbortCall(b.freeHook, uint64(int64(tid)), uint64(h), 0)
	return h
}

// Begin stamps n operations on tid for reclamation-delay accounting and,
// under ModeER, enters the operation's epoch bracket. It reports whether
// End must be called when the operation returns.
func (b *Base[N]) Begin(tid, n int) bool {
	b.threads[tid].ops += uint64(n)
	if b.ep != nil {
		// The whole operation is one epoch-protected critical section, so
		// nodes its released reads still point at cannot be physically
		// reclaimed underneath it.
		b.ep.Enter(tid)
		return true
	}
	return false
}

// End leaves the epoch bracket Begin entered.
func (b *Base[N]) End(tid int) { b.ep.Exit(tid) }

// Budget returns the node-visit budget of a window: the scattered first
// window, the full window when resuming, or unbounded for the
// single-transaction modes.
func (b *Base[N]) Budget(tx *stm.Tx, held bool) int {
	if !b.Mode.Windowed() {
		return int(^uint(0) >> 1)
	}
	win := b.win
	if o := b.winOverride.Load(); o > 0 {
		win.W = int(o)
	}
	if held {
		return win.Next()
	}
	return win.First(tx)
}

// SetWindow changes the hand-over-hand window size at runtime (0 restores
// the configured value). The paper proposes contention-driven window
// tuning as future work; this is the knob that enables it (see
// examples/tuner). Safe to call concurrently with operations: in-flight
// windows finish at their old size. The single-transaction modes ignore
// it.
func (b *Base[N]) SetWindow(w int) { b.winOverride.Store(int32(w)) }

// NoteScan records one Ascend's window count and re-navigations.
func (b *Base[N]) NoteScan(windows, renavs int) {
	if b.scanWindows != nil {
		b.scanWindows.Record(uint64(windows))
		b.scanRenavs.Record(uint64(renavs))
	}
}

// Name is the mode's series label, the reservation kind's for ModeRR.
func (b *Base[N]) Name() string {
	if b.rr != nil {
		return b.rr.Name()
	}
	return b.Mode.String()
}

// Register implements part of sets.Set.
func (b *Base[N]) Register(tid int) {
	if b.rr != nil {
		b.rr.Register(tid)
	}
}

// Finish implements part of sets.Set: it flushes deferred reclamation.
func (b *Base[N]) Finish(tid int) {
	if b.scheme != nil {
		b.scheme.ClearSlots(tid)
		b.scheme.Flush(tid, b.threads[tid].ops)
	}
}

// Runtime exposes the structure's TM runtime (statistics, ablations).
func (b *Base[N]) Runtime() *stm.Runtime { return b.RT }

// ObsDomain returns the observability domain wired at construction (nil
// when Config.Obs was nil).
func (b *Base[N]) ObsDomain() *obs.Domain { return b.obs }

// GuardStats exposes the arena sanitizer counters (zero when guard is off).
func (b *Base[N]) GuardStats() arena.GuardStats { return b.Arena.GuardStats() }

// LiveNodes implements sets.MemoryReporter (sentinels included).
func (b *Base[N]) LiveNodes() uint64 { return b.Arena.Stats().Live }

// DeferredNodes implements sets.MemoryReporter.
func (b *Base[N]) DeferredNodes() uint64 { return b.ReclaimStats().Deferred }

// ReclaimStats exposes the deferred-reclamation counters (zero for the
// precise modes).
func (b *Base[N]) ReclaimStats() reclaim.Stats {
	if b.scheme != nil {
		return b.scheme.Stats()
	}
	return reclaim.Stats{}
}

// PeakDeferred reports the reclamation scheme's deferred high-water mark.
func (b *Base[N]) PeakDeferred() uint64 { return b.ReclaimStats().PeakDeferred }

// AvgReclaimDelayOps reports the mean operations between logical deletion
// and physical free (0 for the precise modes).
func (b *Base[N]) AvgReclaimDelayOps() float64 { return b.ReclaimStats().AvgDelayOps() }

// TxCommits reports committed transactions (benchmark statistics).
func (b *Base[N]) TxCommits() uint64 { return b.RT.Stats().Commits }

// TxAborts reports aborted transaction attempts.
func (b *Base[N]) TxAborts() uint64 { return b.RT.Stats().TotalAborts() }

// TxSerial reports serial-mode commits (HTM-fallback events).
func (b *Base[N]) TxSerial() uint64 { return b.RT.Stats().SerialCommits }

// TMStats returns the full TM statistics snapshot (per-cause aborts,
// clock and commit-lock counters).
func (b *Base[N]) TMStats() stm.Stats { return b.RT.Stats() }

var _ sets.MemoryReporter = (*Base[struct{}])(nil)
