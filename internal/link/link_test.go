package link

import (
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/stm"
)

// tnode is a minimal node layout for driving the link layer directly.
type tnode struct {
	key  stm.Word
	dead stm.Word
}

func retireT(n *tnode, ver uint64) {
	n.key.Retire(ver)
	n.dead.Retire(ver)
}

func poisonT(n *tnode) {
	n.key.Poison(arena.PoisonWord)
	n.dead.Poison(arena.PoisonWord)
}

// TestVBRResumeFreedBeforeDeadLoad pins the TMVBR resume against a free
// that lands between the resume's liveness check and its load of the
// held node's dead mark. The free is injected from the Dead accessor,
// which the resume calls after the liveness check and right before the
// load, so the interleaving is forced rather than left to the scheduler.
// The load then observes the guard's poison; the resume must discard it
// (restart from the root) without the sanitizer reporting a committed
// read of freed memory; a resume that loads the mark through the guarded
// wrapper reports "committed a read of dead" here.
func TestVBRResumeFreedBeforeDeadLoad(t *testing.T) {
	var events []arena.GuardEvent
	var b *Base[tnode]
	freeNext := arena.Nil // freed the next time its dead mark is reached
	b = New(Config{
		Mode: ModeTMVBR, Threads: 1, Guard: true,
		GuardSink: func(ev arena.GuardEvent) { events = append(events, ev) },
	}, Layout[tnode]{
		Family: "singly", Attempts: 2, Window: 8,
		Dead: func(n *tnode) *stm.Word {
			if h := freeNext; !h.IsNil() {
				freeNext = arena.Nil
				b.Arena.Free(0, h) // the concurrent reclaimer's free
			}
			return &n.dead
		},
		Retire: retireT,
		Poison: poisonT,
	})
	root := b.Arena.Alloc(0)

	// A window cut holds s: the next window would resume there.
	var s arena.Handle
	b.RT.AtomicT(0, func(tx *stm.Tx) {
		s = b.Alloc(tx, 0)
		b.Arena.At(s).dead.Store(tx, 0)
		b.Hold(tx, 0, false, s, 7)
	})

	freeNext = s
	var start arena.Handle
	var held bool
	b.RT.AtomicT(0, func(tx *stm.Tx) {
		start, held = b.Start(tx, 0, root)
		b.Terminal(tx, 0, held)
	})
	if !freeNext.IsNil() {
		t.Fatal("the resume never reached the held node's dead mark")
	}
	if held || start != root {
		t.Fatalf("resumed from a freed node: start %v held %v, want root %v", start, held, root)
	}
	if len(events) != 0 {
		t.Fatalf("resume committed a read of freed memory: %v", events[0])
	}
	if gs := b.GuardStats(); gs.Violations != 0 {
		t.Fatalf("guard counted %d violations", gs.Violations)
	}
}

// TestVBRResumeRevalidates covers the other resume outcomes: a live,
// not-dead held node resumes with its word; a dead one restarts.
func TestVBRResumeRevalidates(t *testing.T) {
	b := New(Config{Mode: ModeTMVBR, Threads: 1, Guard: true}, Layout[tnode]{
		Family: "singly", Attempts: 2, Window: 8,
		Dead:   func(n *tnode) *stm.Word { return &n.dead },
		Retire: retireT, Poison: poisonT,
	})
	root := b.Arena.Alloc(0)
	var s arena.Handle
	b.RT.AtomicT(0, func(tx *stm.Tx) {
		s = b.Alloc(tx, 0)
		b.Arena.At(s).dead.Store(tx, 0)
		b.Hold(tx, 0, false, s, 7)
	})
	b.RT.AtomicT(0, func(tx *stm.Tx) {
		if h, held := b.Start(tx, 0, root); !held || h != s || b.Word(0) != 7 {
			t.Errorf("live hold: Start = %v, %v (word %d), want %v, true (word 7)", h, held, b.Word(0), s)
		}
		b.Arena.At(s).dead.Store(tx, 1)
	})
	b.RT.AtomicT(0, func(tx *stm.Tx) {
		if h, held := b.Start(tx, 0, root); held || h != root {
			t.Errorf("dead hold: Start = %v, %v, want root, false", h, held)
		}
	})
}

// TestParseVariant round-trips every series label through the parser and
// pins the support table's rejections the harnesses rely on.
func TestParseVariant(t *testing.T) {
	for m := ModeHTM; int(m) < len(modeNames); m++ {
		if got, _, ok := ParseVariant(m.String()); !ok || got != m {
			t.Errorf("ParseVariant(%q) = %v, %v", m.String(), got, ok)
		}
	}
	for _, k := range core.Kinds() {
		if m, kind, ok := ParseVariant(k.String()); !ok || m != ModeRR || kind != k {
			t.Errorf("ParseVariant(%q) = %v, %v, %v", k.String(), m, kind, ok)
		}
	}
	for _, bad := range []string{"", "RR", "bogus", "Leak", "LFHP"} {
		if _, _, ok := ParseVariant(bad); ok {
			t.Errorf("ParseVariant(%q) accepted", bad)
		}
	}
	for _, c := range []struct {
		family string
		mode   Mode
	}{
		{"doubly", ModeREF}, {"doubly", ModeER}, {"itree", ModeTMHP},
		{"itree", ModeTMVBR}, {"etree", ModeREF}, {"skip", ModeTMHP},
		{"skip", ModeER}, {"bogus", ModeRR},
	} {
		if Supports(c.family, c.mode) {
			t.Errorf("Supports(%s, %v) = true", c.family, c.mode)
		}
	}
}
