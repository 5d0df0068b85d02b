package torture

import (
	"fmt"
	"sync"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/link"
	"hohtx/internal/list"
	"hohtx/internal/lockfree"
	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
	"hohtx/internal/skiplist"
	"hohtx/internal/tree"
)

// Structure names accepted by Config.Structure.
const (
	StructSingly = "singly" // singly linked list
	StructDoubly = "doubly" // doubly linked list
	StructHash   = "hash"   // bucketed hash set
	StructITree  = "itree"  // internal BST
	StructETree  = "etree"  // external BST
	StructSkip   = "skip"   // skiplist
)

// Structures lists every structure the harness can torture.
func Structures() []string {
	return []string{StructSingly, StructDoubly, StructHash, StructITree, StructETree, StructSkip}
}

// Variants returns the mechanism labels defined for a structure: the six
// reservation kinds, then the other modes of link's support table (the
// whole-operation HTM baseline, the deferred comparators TMHP, TMHE and
// TMVBR, REF and ER) wherever the structure implements them, then the
// lock-free baselines (Leak, LFHP) the paper defines for it.
func Variants(structure string) []string {
	var out []string
	for _, m := range link.Modes(structure) {
		if m != link.ModeRR {
			out = append(out, m.String())
			continue
		}
		for _, k := range core.Kinds() {
			out = append(out, k.String())
		}
	}
	return append(out, lockFreeVariants[structure]...)
}

// lockFreeVariants lists the lock-free baselines per structure: the
// Harris list (leaking or with hazard pointers) and the leaking
// Natarajan–Mittal external tree.
var lockFreeVariants = map[string][]string{
	StructSingly: {"Leak", "LFHP"},
	StructETree:  {"Leak"},
}

// guardCollector gathers use-after-free events reported by the arena so a
// violation fails the run with a reproducible seed instead of panicking
// mid-schedule.
type guardCollector struct {
	mu     sync.Mutex
	events []arena.GuardEvent
}

func (g *guardCollector) sink(ev arena.GuardEvent) {
	g.mu.Lock()
	g.events = append(g.events, ev)
	g.mu.Unlock()
}

func (g *guardCollector) take() []arena.GuardEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.events
}

// instance is a built structure plus the metadata the invariant checks
// need: how many arena nodes one key costs, the sentinel overhead, which
// reclamation discipline applies, and structure-specific validators.
type instance struct {
	set      sets.Set
	guard    *guardCollector // nil when the variant cannot run guarded
	obs      *obs.Domain     // flight recorder; nil for the lock-free baselines
	obsAll   []*obs.Domain   // sharded runs: one domain per shard
	perKey   uint64          // arena nodes per resident key
	baseLive uint64          // sentinel/bootstrap nodes (measured post-build)
	deferred bool            // uses a deferred scheme (TMHP/ER/Leak/LFHP)
	leak     bool            // never frees (Leak/LFLeak-style)
	canScan  bool            // Ascender-capable: the scan oracle engages
	// atomicBatch marks structures whose Apply runs a batch as one
	// transaction per shard (the TM-backed ones); the lock-free baselines
	// document Apply as per-op, so the batch-atomicity pin skips them.
	atomicBatch bool
	rounds      int // Finish rounds needed to drain (2 for hazard schemes)
	// strandBound: after one Finish round the leftovers are bounded by the
	// published-slot count (hazard-pointer schemes: one handle per slot).
	// Hazard Eras is rounds=2 but NOT strand-bound — one stale era
	// reservation covers every retiree whose [birth, del] interval contains
	// it, which is not proportional to the slot count.
	strandBound bool
	reclaim     func() reclaim.Stats
	validate    func() error
}

// domains returns every observability domain the instance carries: the
// per-shard list for sharded runs, the single domain otherwise, nothing
// for the uninstrumented lock-free baselines.
func (inst *instance) domains() []*obs.Domain {
	if len(inst.obsAll) > 0 {
		return inst.obsAll
	}
	if inst.obs != nil {
		return []*obs.Domain{inst.obs}
	}
	return nil
}

func zeroStats() reclaim.Stats { return reclaim.Stats{} }

// build constructs the instance for a run: one structure × variant ×
// policy instance, or — when cfg.Shards > 1 — that many of them behind
// the serve.Sharded routing facade.
func build(cfg Config) (*instance, error) {
	var guard *guardCollector
	if cfg.Guard {
		// One collector for the whole run: in a sharded run every shard's
		// arena reports into the same sink, so a violation anywhere fails
		// the run with the one repro line.
		guard = &guardCollector{}
	}
	var inst *instance
	var err error
	if cfg.Shards <= 1 {
		inst, err = buildOne(cfg, guard, cfg.Structure+"/"+cfg.Variant)
	} else {
		inst, err = buildSharded(cfg, guard)
	}
	if err != nil {
		return nil, err
	}
	inst.canScan = scanCapable(inst.set)
	return inst, nil
}

// scanCapable reports whether the built set supports the Ascender
// reservation cursor: it must implement the interface, and if it exposes
// a CanAscend capability probe (mode-gated structures, sharded facades)
// that must agree too.
func scanCapable(s sets.Set) bool {
	if _, ok := s.(sets.Ascender); !ok {
		return false
	}
	if c, ok := s.(interface{ CanAscend() bool }); ok {
		return c.CanAscend()
	}
	return true
}

// buildOne constructs a single structure × variant × policy instance,
// reporting guard events into the given collector (nil = unguarded) and
// naming its observability domain obsName.
func buildOne(cfg Config, guard *guardCollector, obsName string) (*instance, error) {
	inst := &instance{perKey: 1, rounds: 1, reclaim: zeroStats}
	if cfg.Structure == StructETree {
		inst.perKey = 2 // leaf + router
	}
	if cfg.Variant == "Leak" || cfg.Variant == "LFHP" {
		return buildLockFree(cfg, inst)
	}
	if link.Modes(cfg.Structure) == nil {
		return nil, fmt.Errorf("torture: unknown structure %q", cfg.Structure)
	}
	mode, kind, ok := link.ParseVariant(cfg.Variant)
	if !ok {
		return nil, fmt.Errorf("torture: unknown variant %q", cfg.Variant)
	}
	if !link.Supports(cfg.Structure, mode) {
		return nil, fmt.Errorf("torture: %s is undefined for %s", cfg.Variant, cfg.Structure)
	}
	var sink func(arena.GuardEvent)
	if guard != nil {
		sink = guard.sink
	}
	// Every TM-backed instance carries an always-sampled observability
	// domain so a failed run can dump its flight recorder next to the repro
	// line.
	dom := obs.NewDomain(obs.DomainConfig{
		Name:       obsName,
		Threads:    cfg.Threads,
		RingEvents: 512,
	})
	lcfg := link.Config{
		Mode:        mode,
		RRKind:      kind,
		Threads:     cfg.Threads,
		Window:      core.Window{W: cfg.Window},
		ArenaPolicy: cfg.Policy,
		Guard:       cfg.Guard,
		GuardSink:   sink,
		Obs:         dom,
	}
	inst.guard = guard
	inst.deferred = mode.Deferred()
	if mode == link.ModeTMHP || mode == link.ModeTMHE {
		inst.rounds = 2
	}
	inst.strandBound = mode == link.ModeTMHP

	switch cfg.Structure {
	case StructSingly:
		l := list.New(lcfg)
		inst.set, inst.reclaim = l, l.ReclaimStats
	case StructDoubly:
		d := list.NewDoubly(lcfg)
		inst.set, inst.reclaim = d, d.ReclaimStats
		inst.validate = check(d.ValidateLinks, "prev/next link symmetry violated")
	case StructHash:
		h := list.NewHashTable(lcfg, cfg.Threads*4)
		inst.set, inst.reclaim = h, h.ReclaimStats
	case StructITree:
		t := tree.NewInternal(lcfg)
		inst.set, inst.reclaim = t, t.ReclaimStats
		inst.validate = check(t.ValidateBST, "BST ordering invariant violated")
	case StructETree:
		t := tree.NewExternal(lcfg)
		inst.set, inst.reclaim = t, t.ReclaimStats
		inst.validate = check(t.ValidateRouting, "external-tree routing invariant violated")
	case StructSkip:
		s := skiplist.New(lcfg)
		inst.set, inst.reclaim = s, s.ReclaimStats
		inst.validate = check(s.ValidateLevels, "skiplist level invariant violated")
	}
	inst.obs = dom
	inst.atomicBatch = true // every TM-backed Apply is one transaction
	return measureBase(inst), nil
}

// buildLockFree builds the lock-free baselines: the Harris list (Leak or
// LFHP, singly only) and the leaking Natarajan–Mittal tree (etree only).
// They carry no observability domain and cannot run guarded.
func buildLockFree(cfg Config, inst *instance) (*instance, error) {
	inst.deferred = true
	inst.leak = cfg.Variant == "Leak"
	switch {
	case cfg.Structure == StructSingly:
		l := lockfree.NewHarrisList(lockfree.ListConfig{
			Threads:           cfg.Threads,
			UseHazardPointers: cfg.Variant == "LFHP",
			ArenaPolicy:       cfg.Policy,
		})
		inst.set = l
		if cfg.Variant == "LFHP" {
			inst.rounds = 2
			inst.strandBound = true
		}
		inst.reclaim = l.ReclaimStats
	case cfg.Structure == StructETree && inst.leak:
		t := lockfree.NewNMTree(lockfree.NMConfig{Threads: cfg.Threads})
		inst.set = t
		inst.validate = check(t.ValidateRouting, "NM-tree routing invariant violated")
	default:
		return nil, fmt.Errorf("torture: %s is undefined for %s", cfg.Variant, cfg.Structure)
	}
	return measureBase(inst), nil
}

// check adapts a boolean shape validator to the instance's error form.
func check(valid func() bool, msg string) func() error {
	return func() error {
		if !valid() {
			return fmt.Errorf("%s", msg)
		}
		return nil
	}
}

// buildSharded constructs cfg.Shards independent instances and combines
// them behind serve.Sharded. The combined instance's invariant metadata
// aggregates the shards' (summed base nodes and reclamation counters,
// max drain rounds), and its validator descends into each shard: the
// structure-specific checks run per shard, and so does the exact memory
// book — live nodes in shard i must equal shard i's sentinels plus
// perKey × its resident keys, not just in aggregate, because two shards
// leaking in opposite directions would cancel in the sum.
func buildSharded(cfg Config, guard *guardCollector) (*instance, error) {
	subs := make([]*instance, cfg.Shards)
	parts := make([]sets.Set, cfg.Shards)
	for i := range subs {
		si, err := buildOne(cfg, guard, fmt.Sprintf("%s/%s#s%d", cfg.Structure, cfg.Variant, i))
		if err != nil {
			return nil, err
		}
		subs[i] = si
		parts[i] = si.set
	}
	first := subs[0]
	inst := &instance{
		set:         serve.NewSharded(parts),
		guard:       first.guard,
		obs:         first.obs,
		perKey:      first.perKey,
		deferred:    first.deferred,
		leak:        first.leak,
		atomicBatch: first.atomicBatch,
		rounds:      first.rounds,
		strandBound: first.strandBound,
	}
	for _, si := range subs {
		inst.baseLive += si.baseLive
		if si.obs != nil {
			inst.obsAll = append(inst.obsAll, si.obs)
		}
	}
	inst.reclaim = func() reclaim.Stats {
		var out reclaim.Stats
		for _, si := range subs {
			st := si.reclaim()
			out.Retired += st.Retired
			out.Freed += st.Freed
			out.Deferred += st.Deferred
			out.PeakDeferred += st.PeakDeferred // upper bound: peaks need not align
			out.Scans += st.Scans
			out.DelayOpsSum += st.DelayOpsSum
			out.Leftover += st.Leftover
		}
		return out
	}
	inst.validate = func() error {
		for i, si := range subs {
			if si.validate != nil {
				if err := si.validate(); err != nil {
					return fmt.Errorf("shard %d: %w", i, err)
				}
			}
			mr, ok := si.set.(sets.MemoryReporter)
			if !ok {
				continue
			}
			live, def := mr.LiveNodes(), mr.DeferredNodes()
			expect := si.baseLive + si.perKey*uint64(len(si.set.Snapshot()))
			switch {
			case !si.deferred:
				if live != expect {
					return fmt.Errorf("shard %d: precise mode: live %d != expected %d", i, live, expect)
				}
				if def != 0 {
					return fmt.Errorf("shard %d: precise mode: %d deferred nodes", i, def)
				}
			case si.leak:
				if live != expect+def {
					return fmt.Errorf("shard %d: leak mode: live %d != %d expected + %d leaked", i, live, expect, def)
				}
			default:
				if def != 0 {
					return fmt.Errorf("shard %d: deferred mode: %d nodes still deferred after full drain", i, def)
				}
				if live != expect {
					return fmt.Errorf("shard %d: deferred mode after drain: live %d != expected %d", i, live, expect)
				}
			}
		}
		return nil
	}
	return inst, nil
}

// measureBase records the freshly built structure's sentinel/bootstrap node
// count, the constant term of the memory-accounting invariant.
func measureBase(inst *instance) *instance {
	if mr, ok := inst.set.(sets.MemoryReporter); ok {
		inst.baseLive = mr.LiveNodes()
	}
	return inst
}
