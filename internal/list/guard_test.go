package list

import (
	"hohtx/internal/link"
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/stm"
)

// guardHarness builds a guarded HTM-mode list holding {1,2,3} and then
// violates the reclamation protocol on purpose: node 2 is freed while still
// linked, exactly the bug class (premature free of a reachable node) the
// sanitizer exists to catch.
func guardHarness(t *testing.T, sink func(arena.GuardEvent)) (*List, arena.Handle) {
	t.Helper()
	l := New(link.Config{Mode: link.ModeHTM, Threads: 2, Guard: true, GuardSink: sink})
	l.Register(0)
	for _, k := range []uint64{1, 2, 3} {
		if !l.Insert(0, k) {
			t.Fatalf("setup insert %d failed", k)
		}
	}
	h1 := arena.Handle(l.Arena.At(l.head).next.Raw())
	h2 := arena.Handle(l.Arena.At(h1).next.Raw())
	l.Arena.Free(0, h2) // deliberate use-after-free setup: node 2 is still linked
	return l, h2
}

// TestGuardDetectsCommittedUAF: a traversal that reads the freed node's
// poisoned key and then commits is a true use-after-free and must surface
// through the sink with the victim's audit trail.
func TestGuardDetectsCommittedUAF(t *testing.T) {
	var events []arena.GuardEvent
	l, h2 := guardHarness(t, func(ev arena.GuardEvent) { events = append(events, ev) })

	// The poisoned key reads as PoisonWord (≫ any real key), so the search
	// stops at node 2 and commits believing 3 is absent — a silent wrong
	// answer without the sanitizer.
	if l.Lookup(0, 3) {
		t.Fatal("lookup found 3 through a poisoned node")
	}
	if len(events) != 1 {
		t.Fatalf("sink received %d events, want 1", len(events))
	}
	if events[0].H != h2 || events[0].Audit.Frees != 1 {
		t.Fatalf("event %+v does not name the freed node %v", events[0], h2)
	}
	gs := l.GuardStats()
	if gs.Violations != 1 || gs.PoisonReads == 0 {
		t.Fatalf("guard stats %+v, want 1 violation backed by poison reads", gs)
	}
}

// TestGuardBenignDoomedReaderNotCounted: an attempt that reads poison but
// aborts is the expected doomed-reader pattern (see the arena package
// comment) and must count as a poison read, never as a violation.
func TestGuardBenignDoomedReaderNotCounted(t *testing.T) {
	l, h2 := guardHarness(t, func(ev arena.GuardEvent) {
		t.Errorf("benign doomed read reported as violation: %v", ev)
	})

	attempt := 0
	l.RT.Atomic(func(tx *stm.Tx) {
		attempt++
		if attempt == 1 {
			_ = l.LoadWord(tx, 0, h2, &l.Arena.At(h2).key) // doomed read
			tx.Restart()                                   // ...that never commits
		}
	})
	gs := l.GuardStats()
	if gs.PoisonReads == 0 {
		t.Fatal("doomed poison read was not counted")
	}
	if gs.Violations != 0 {
		t.Fatalf("aborted attempt produced %d violations", gs.Violations)
	}
}

// TestGuardPoisonedLinkDefusesToNil: a link load that observes poison must
// yield arena.Nil rather than a handle with the poison's user bits set
// (which At would reject with a panic even for benign doomed readers).
func TestGuardPoisonedLinkDefusesToNil(t *testing.T) {
	l, h2 := guardHarness(t, func(arena.GuardEvent) {})
	attempt := 0
	l.RT.Atomic(func(tx *stm.Tx) {
		attempt++
		if attempt == 1 {
			if h := l.LoadLink(tx, 0, h2, &l.Arena.At(h2).next); !h.IsNil() {
				t.Errorf("poisoned link loaded as %v, want Nil", h)
			}
			tx.Restart()
		}
	})
}
