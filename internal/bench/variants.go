package bench

import (
	"fmt"
	"runtime"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/link"
	"hohtx/internal/list"
	"hohtx/internal/lockfree"
	"hohtx/internal/obs"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
	"hohtx/internal/skiplist"
	"hohtx/internal/stm"
	"hohtx/internal/tree"
)

// Family identifies which data structure an experiment runs on.
type Family string

const (
	// FamilySingly is the singly linked list (Figure 2).
	FamilySingly Family = "singly"
	// FamilyDoubly is the doubly linked list (Figures 3 and 5).
	FamilyDoubly Family = "doubly"
	// FamilyInternalTree is the internal BST (Figure 6).
	FamilyInternalTree Family = "itree"
	// FamilyExternalTree is the external BST (Figure 7).
	FamilyExternalTree Family = "etree"
	// FamilySkipList is the skiplist (paper §6 future work; extension
	// benches only).
	FamilySkipList Family = "skip"
)

// VariantSpec fully determines how to build one series' data structure.
type VariantSpec struct {
	// Name is the series legend label: the paper's ("RR-XO", "HTM",
	// "TMHP", "REF", "LFLeak", "LFHP") plus the extended reclamation
	// matrix's "TMHE" and "TMVBR" (DESIGN.md §14).
	Name string
	// Window is the hand-over-hand window size W (ignored by HTM and the
	// lock-free variants). Zero means "use BestWindow for the family and
	// thread count".
	Window int
	// NoScatter disables the first-window randomization (Fig. 4 ablation).
	NoScatter bool
	// Policy selects the arena free-list policy (Fig. 5).
	Policy arena.Policy
	// Assoc overrides A for the set-associative schemes (ablations);
	// zero keeps the paper's A = 8.
	Assoc int
	// Capacity overrides the simulated HTM's tracked-cell capacity
	// (ablations; zero keeps the profile default).
	Capacity int
	// NoSimulatedPreemption disables the automatic yield injection on
	// single-core hosts (see SimYieldShift).
	NoSimulatedPreemption bool
	// LazyClock selects the GV5 lazy global-clock policy for the TM-based
	// variants (see stm.ClockPolicy). Ignored by the lock-free variants,
	// which have no version clock.
	LazyClock bool
	// Observe attaches a fresh observability domain (package obs) to the
	// structure; the runner pulls latency and reclamation percentiles out
	// of it through the ObsReporter interface. The lock-free variants have
	// no instrumented sites and ignore it.
	Observe bool
	// ObsName overrides the observability domain's label (default: Name).
	// BuildSharded uses it to register each shard's domain under a
	// distinct name on the same endpoint.
	ObsName string
}

// BenchSampleShift traces 1 in 2^4 transactions when Observe is set:
// enough samples for stable p99s at bench op counts while keeping the
// probe cost off the critical path.
const BenchSampleShift = 4

// obsDomain builds the per-instance domain an observed spec attaches.
func obsDomain(spec VariantSpec, threads int) *obs.Domain {
	if !spec.Observe {
		return nil
	}
	name := spec.ObsName
	if name == "" {
		name = spec.Name
	}
	return obs.NewDomain(obs.DomainConfig{
		Name:        name,
		Threads:     threads,
		SampleShift: BenchSampleShift,
	})
}

// clockOf maps the spec's clock knob to the stm policy.
func clockOf(spec VariantSpec) stm.ClockPolicy {
	if spec.LazyClock {
		return stm.ClockGV5
	}
	return stm.ClockGV1
}

// SimYieldShift is the yield-injection rate used to simulate preemptive
// interleaving when the host has a single CPU: every transactional access
// (or lock-free node visit) yields with probability 1/2^5. Without it, a
// one-core host runs each microsecond-scale transaction to completion
// between scheduler quanta and the conflict dynamics the paper's
// evaluation studies never occur; see EXPERIMENTS.md ("Concurrency
// simulation").
const SimYieldShift = 5

// simShift returns the yield shift to apply given the host's parallelism.
func simShift(disabled bool) uint8 {
	if disabled || runtime.GOMAXPROCS(0) > 1 {
		return 0
	}
	return SimYieldShift
}

// BestWindow returns the tuned window size for a family at a thread count,
// following the paper's findings: "Up to 4 threads, a window size of 16 is
// best. At 8 threads, the balance tips in favor of a window size of 8"
// (§5.2) for the lists; the trees favor larger windows at low thread
// counts (§5.4).
func BestWindow(f Family, threads int) int {
	switch f {
	case FamilySingly, FamilyDoubly:
		if threads <= 4 {
			return 16
		}
		return 8
	default:
		if threads <= 2 {
			return 32
		}
		return 16
	}
}

// Build constructs the variant for a family at a thread count. It returns
// an error for combinations the paper does not define (e.g. REF on the
// doubly linked list); link.Modes is the one support table.
func Build(f Family, spec VariantSpec, threads int) (sets.Set, error) {
	if set, ok := buildLockFree(f, spec, threads); ok {
		if set == nil {
			return nil, fmt.Errorf("bench: %s is undefined for %s (as in the paper)", spec.Name, f)
		}
		return set, nil
	}
	if link.Modes(string(f)) == nil {
		return nil, fmt.Errorf("bench: unknown family %q", f)
	}
	mode, kind, ok := link.ParseVariant(spec.Name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown %s variant %q", f, spec.Name)
	}
	if !link.Supports(string(f), mode) {
		return nil, fmt.Errorf("bench: %s is undefined for %s (as in the paper)", spec.Name, f)
	}
	w := spec.Window
	if w == 0 {
		w = BestWindow(f, threads)
	}
	cfg := link.Config{
		Mode:        mode,
		RRKind:      kind,
		Threads:     threads,
		Window:      core.Window{W: w, NoScatter: spec.NoScatter},
		ArenaPolicy: spec.Policy,
		Assoc:       spec.Assoc,
		YieldShift:  simShift(spec.NoSimulatedPreemption),
		ClockPolicy: clockOf(spec),
		Obs:         obsDomain(spec, threads),
	}
	if spec.Capacity > 0 {
		// The paper's serial fallback: after 2 attempts for the lists,
		// 8 for the trees (and the skiplist).
		attempts := 8
		if f == FamilySingly || f == FamilyDoubly {
			attempts = 2
		}
		cfg.Profile = stm.Profile{Capacity: spec.Capacity, MaxAttempts: attempts}
	}
	switch f {
	case FamilySingly:
		return list.New(cfg), nil
	case FamilyDoubly:
		return list.NewDoubly(cfg), nil
	case FamilyInternalTree:
		return tree.NewInternal(cfg), nil
	case FamilyExternalTree:
		return tree.NewExternal(cfg), nil
	default:
		return skiplist.New(cfg), nil
	}
}

// buildLockFree builds the lock-free comparators (LFLeak, LFHP). ok
// reports whether spec names one; a nil set with ok means the family has
// no lock-free counterpart (the paper's comparators are the Harris list
// and the external Natarajan–Mittal tree).
func buildLockFree(f Family, spec VariantSpec, threads int) (set sets.Set, ok bool) {
	if spec.Name != "LFLeak" && spec.Name != "LFHP" {
		return nil, false
	}
	switch {
	case f == FamilySingly:
		return lockfree.NewHarrisList(lockfree.ListConfig{
			Threads:           threads,
			UseHazardPointers: spec.Name == "LFHP",
			ArenaPolicy:       spec.Policy,
			YieldShift:        simShift(spec.NoSimulatedPreemption),
		}), true
	case f == FamilyExternalTree && spec.Name == "LFLeak":
		return lockfree.NewNMTree(lockfree.NMConfig{
			Threads:    threads,
			YieldShift: simShift(spec.NoSimulatedPreemption),
		}), true
	}
	return nil, true
}

// BuildSharded constructs shards independent instances of a variant —
// each with its own STM runtime (global clock, serial-fallback lock),
// arena, and reclamation scheme — behind the serve.Sharded routing
// facade, all configured for the same per-shard thread count. The result
// still implements sets.Set, so benchmarks, the torture harness, and the
// lease pool drive it unchanged; front ends that want one lease pool per
// shard reach the underlying sets through Shard(i).
//
// Observed specs get one obs domain per shard, named "<ObsName|Name>-s<i>"
// so all of them can register on a single endpoint without colliding.
func BuildSharded(f Family, spec VariantSpec, threads, shards int) (*serve.Sharded, error) {
	if shards <= 0 {
		shards = 1
	}
	parts := make([]sets.Set, shards)
	for i := range parts {
		s := spec
		if s.Observe {
			base := s.ObsName
			if base == "" {
				base = s.Name
			}
			s.ObsName = fmt.Sprintf("%s-s%d", base, i)
		}
		set, err := Build(f, s, threads)
		if err != nil {
			return nil, err
		}
		parts[i] = set
	}
	return serve.NewSharded(parts), nil
}

// RRNames returns the six reservation series labels in the paper's order.
func RRNames() []string {
	var out []string
	for _, k := range core.Kinds() {
		out = append(out, k.String())
	}
	return out
}
