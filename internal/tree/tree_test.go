package tree

import (
	"hohtx/internal/link"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hohtx/internal/core"
	"hohtx/internal/sets"
)

// treeUnderTest pairs a set with its structural validator.
type treeUnderTest struct {
	s        sets.Set
	mem      sets.MemoryReporter
	validate func() bool
	// sentinels is how many arena nodes exist in an empty instance.
	sentinels uint64
}

func internalVariants(threads, w int) []treeUnderTest {
	var out []treeUnderTest
	mk := func(cfg link.Config) treeUnderTest {
		t := NewInternal(cfg)
		return treeUnderTest{s: t, mem: t, validate: t.ValidateBST, sentinels: 1}
	}
	for _, k := range core.Kinds() {
		out = append(out, mk(link.Config{Mode: link.ModeRR, RRKind: k, Threads: threads, Window: core.Window{W: w}}))
	}
	out = append(out, mk(link.Config{Mode: link.ModeHTM, Threads: threads}))
	return out
}

func externalVariants(threads, w int) []treeUnderTest {
	var out []treeUnderTest
	mk := func(cfg link.Config) treeUnderTest {
		t := NewExternal(cfg)
		return treeUnderTest{s: t, mem: t, validate: t.ValidateRouting, sentinels: 5}
	}
	for _, k := range core.Kinds() {
		out = append(out, mk(link.Config{Mode: link.ModeRR, RRKind: k, Threads: threads, Window: core.Window{W: w}}))
	}
	out = append(out,
		mk(link.Config{Mode: link.ModeHTM, Threads: threads}),
		mk(link.Config{Mode: link.ModeTMHP, Threads: threads, Window: core.Window{W: w}, ScanThreshold: 8}),
		mk(link.Config{Mode: link.ModeTMHE, Threads: threads, Window: core.Window{W: w}, ScanThreshold: 8}),
		mk(link.Config{Mode: link.ModeTMVBR, Threads: threads, Window: core.Window{W: w}, ScanThreshold: 8}),
	)
	return out
}

func allVariants(threads, w int) []treeUnderTest {
	return append(internalVariants(threads, w), externalVariants(threads, w)...)
}

func TestSequentialSemantics(t *testing.T) {
	for _, v := range allVariants(1, 3) {
		t.Run(v.s.Name()+"/"+variantFamily(v), func(t *testing.T) {
			s := v.s
			s.Register(0)
			if s.Lookup(0, 10) {
				t.Fatal("lookup on empty tree")
			}
			for _, k := range []uint64{50, 30, 70, 20, 40, 60, 80, 10} {
				if !s.Insert(0, k) {
					t.Fatalf("insert %d failed", k)
				}
			}
			if s.Insert(0, 40) {
				t.Fatal("duplicate insert succeeded")
			}
			for _, k := range []uint64{10, 20, 30, 40, 50, 60, 70, 80} {
				if !s.Lookup(0, k) {
					t.Fatalf("lookup %d failed", k)
				}
			}
			if s.Lookup(0, 55) {
				t.Fatal("lookup of absent key")
			}
			if !v.validate() {
				t.Fatal("structure invalid after inserts")
			}
			// Remove a leaf (10), a one-child node, and the two-children
			// root region (50) to hit every removal case.
			for _, k := range []uint64{10, 30, 50} {
				if !s.Remove(0, k) {
					t.Fatalf("remove %d failed", k)
				}
				if s.Lookup(0, k) {
					t.Fatalf("key %d present after remove", k)
				}
				if !v.validate() {
					t.Fatalf("structure invalid after removing %d", k)
				}
			}
			if got := s.Snapshot(); !sets.KeysEqual(got, []uint64{20, 40, 60, 70, 80}) {
				t.Fatalf("snapshot = %v", got)
			}
			s.Finish(0)
		})
	}
}

func variantFamily(v treeUnderTest) string {
	if v.sentinels == 1 {
		return "internal"
	}
	return "external"
}

// TestTwoChildrenRemovalCases drills the internal tree's successor-swap
// paths: successor is the right child itself, and successor is deep with a
// right subtree to promote.
func TestTwoChildrenRemovalCases(t *testing.T) {
	for _, k := range core.Kinds() {
		tr := NewInternal(link.Config{Mode: link.ModeRR, RRKind: k, Threads: 1, Window: core.Window{W: 4}})
		t.Run(tr.Name(), func(t *testing.T) {
			tr.Register(0)
			// Case 1: successor is the right child (no left descent).
			for _, key := range []uint64{50, 30, 60, 65} {
				tr.Insert(0, key)
			}
			if !tr.Remove(0, 50) {
				t.Fatal("remove 50")
			}
			if !tr.ValidateBST() || tr.Lookup(0, 50) || !tr.Lookup(0, 60) || !tr.Lookup(0, 65) {
				t.Fatal("case 1 broke the tree")
			}
			// Case 2: deep successor with right child to promote.
			for _, key := range []uint64{40, 100, 70, 80, 75, 78} {
				tr.Insert(0, key)
			}
			if !tr.Remove(0, 60) { // successor of 60 is 65; then deeper shapes
				t.Fatal("remove 60")
			}
			if !tr.Remove(0, 65) {
				t.Fatal("remove 65")
			}
			if !tr.ValidateBST() {
				t.Fatal("case 2 broke the BST")
			}
			want := []uint64{30, 40, 70, 75, 78, 80, 100}
			if got := tr.Snapshot(); !sets.KeysEqual(got, want) {
				t.Fatalf("snapshot = %v, want %v", got, want)
			}
		})
	}
}

func TestSequentialVsModel(t *testing.T) {
	for _, v := range allVariants(1, 4) {
		t.Run(v.s.Name()+"/"+variantFamily(v), func(t *testing.T) {
			s := v.s
			s.Register(0)
			rng := rand.New(rand.NewSource(7))
			model := map[uint64]bool{}
			for i := 0; i < 4000; i++ {
				key := uint64(rng.Intn(128)) + 1
				switch rng.Intn(3) {
				case 0:
					if got, want := s.Insert(0, key), !model[key]; got != want {
						t.Fatalf("op %d: Insert(%d) = %v want %v", i, key, got, want)
					}
					model[key] = true
				case 1:
					if got, want := s.Remove(0, key), model[key]; got != want {
						t.Fatalf("op %d: Remove(%d) = %v want %v", i, key, got, want)
					}
					delete(model, key)
				default:
					if got, want := s.Lookup(0, key), model[key]; got != want {
						t.Fatalf("op %d: Lookup(%d) = %v want %v", i, key, got, want)
					}
				}
				if i%500 == 0 && !v.validate() {
					t.Fatalf("structure invalid at op %d", i)
				}
			}
			var want []uint64
			for k := range model {
				want = append(want, k)
			}
			if got := s.Snapshot(); !sets.KeysEqual(got, want) {
				t.Fatalf("final snapshot mismatch")
			}
			s.Finish(0)
		})
	}
}

// TestPreciseReclamationInternal checks immediate reclamation through the
// two-children removal path (which frees the extracted successor node).
func TestPreciseReclamationInternal(t *testing.T) {
	tr := NewInternal(link.Config{Mode: link.ModeRR, RRKind: core.KindXO, Threads: 1, Window: core.Window{W: 8}})
	tr.Register(0)
	for k := uint64(1); k <= 64; k++ {
		tr.Insert(0, k)
	}
	if live := tr.LiveNodes(); live != 65 {
		t.Fatalf("live = %d, want 65", live)
	}
	for k := uint64(1); k <= 64; k++ {
		if !tr.Remove(0, k) {
			t.Fatalf("remove %d", k)
		}
		if tr.DeferredNodes() != 0 {
			t.Fatal("internal RR tree deferred a free")
		}
	}
	if live := tr.LiveNodes(); live != 1 {
		t.Fatalf("live after all removes = %d, want 1 (sentinel)", live)
	}
}

// TestPreciseReclamationExternal: each remove frees exactly two nodes
// (leaf + router) immediately.
func TestPreciseReclamationExternal(t *testing.T) {
	tr := NewExternal(link.Config{Mode: link.ModeRR, RRKind: core.KindV, Threads: 1, Window: core.Window{W: 8}})
	tr.Register(0)
	base := tr.LiveNodes()
	tr.Insert(0, 10)
	tr.Insert(0, 20)
	if live := tr.LiveNodes(); live != base+4 {
		t.Fatalf("live = %d, want %d (+2 per insert)", live, base+4)
	}
	tr.Remove(0, 10)
	if live := tr.LiveNodes(); live != base+2 {
		t.Fatalf("live after remove = %d, want %d", live, base+2)
	}
	tr.Remove(0, 20)
	if live := tr.LiveNodes(); live != base {
		t.Fatalf("live after removing all = %d, want %d", live, base)
	}
}

func runStress(t *testing.T, v treeUnderTest, threads, iters int, keyRange uint64) {
	t.Helper()
	s := v.s
	var succIns, succRem atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s.Register(tid)
			rng := rand.New(rand.NewSource(int64(tid)*104729 + 11))
			for i := 0; i < iters; i++ {
				key := uint64(rng.Int63())%keyRange + 1
				switch rng.Intn(3) {
				case 0:
					if s.Insert(tid, key) {
						succIns.Add(1)
					}
				case 1:
					if s.Remove(tid, key) {
						succRem.Add(1)
					}
				default:
					s.Lookup(tid, key)
				}
			}
			s.Finish(tid)
		}(w)
	}
	wg.Wait()

	snap := s.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			t.Fatalf("snapshot not sorted at %d", i)
		}
	}
	if int64(len(snap)) != succIns.Load()-succRem.Load() {
		t.Fatalf("balance violated: |set| = %d, inserts-removes = %d",
			len(snap), succIns.Load()-succRem.Load())
	}
	if !v.validate() {
		t.Fatal("structure invalid after stress")
	}
	perKey := uint64(1)
	if v.sentinels > 1 {
		perKey = 2 // external: leaf + router per present key
	}
	if live, want := v.mem.LiveNodes(), uint64(len(snap))*perKey+v.sentinels+v.mem.DeferredNodes(); live != want {
		t.Fatalf("memory books: live = %d, want %d", live, want)
	}
}

func TestConcurrentStressInternal(t *testing.T) {
	const threads = 8
	for _, v := range internalVariants(threads, 6) {
		t.Run(v.s.Name(), func(t *testing.T) {
			runStress(t, v, threads, 1200, 128)
		})
	}
}

func TestConcurrentStressExternal(t *testing.T) {
	const threads = 8
	for _, v := range externalVariants(threads, 6) {
		t.Run(v.s.Name(), func(t *testing.T) {
			runStress(t, v, threads, 1200, 128)
		})
	}
}

// TestConcurrentSuccessorSwaps targets the path-revocation logic: threads
// look up keys that are being moved upward by two-children removals.
func TestConcurrentSuccessorSwaps(t *testing.T) {
	for _, k := range core.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			const threads = 6
			tr := NewInternal(link.Config{Mode: link.ModeRR, RRKind: k, Threads: threads, Window: core.Window{W: 2}})
			for tid := 0; tid < threads; tid++ {
				tr.Register(tid)
			}
			// A comb-shaped tree maximizes victim-to-successor distance.
			for _, key := range []uint64{100, 50, 200, 150, 300, 120, 180, 110, 130} {
				tr.Insert(0, key)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			var misses atomic.Int64
			// Readers hammer a key that stays present throughout: 130 is
			// never removed, but its ancestors get swapped repeatedly.
			for r := 1; r <= 4; r++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if !tr.Lookup(tid, 130) {
							misses.Add(1)
							return
						}
					}
				}(r)
			}
			// The writer removes and reinserts two-children victims whose
			// successor paths pass over 130's ancestors.
			for i := 0; i < 400; i++ {
				if !tr.Remove(5, 100) {
					t.Fatal("remove 100")
				}
				if !tr.Insert(5, 100) {
					t.Fatal("reinsert 100")
				}
			}
			close(stop)
			wg.Wait()
			if misses.Load() != 0 {
				t.Fatalf("%d lookups missed a key that was always present", misses.Load())
			}
			if !tr.ValidateBST() {
				t.Fatal("BST invalid")
			}
		})
	}
}

// TestExternalSentinelChurn drills the grandparent-is-sentinel paths: a
// singleton tree's leaf has the inner sentinel router as grandparent, and
// removing it must promote the sentinel leaf back into place.
func TestExternalSentinelChurn(t *testing.T) {
	for _, k := range core.Kinds() {
		tr := NewExternal(link.Config{Mode: link.ModeRR, RRKind: k, Threads: 1, Window: core.Window{W: 2}})
		t.Run(tr.Name(), func(t *testing.T) {
			tr.Register(0)
			base := tr.LiveNodes()
			for round := 0; round < 200; round++ {
				if !tr.Insert(0, 42) {
					t.Fatalf("round %d: insert failed", round)
				}
				if !tr.Lookup(0, 42) {
					t.Fatalf("round %d: lookup failed", round)
				}
				if !tr.Remove(0, 42) {
					t.Fatalf("round %d: remove failed", round)
				}
				if tr.LiveNodes() != base {
					t.Fatalf("round %d: leak (%d vs %d)", round, tr.LiveNodes(), base)
				}
			}
			if !tr.ValidateRouting() {
				t.Fatal("routing invalid after churn")
			}
		})
	}
}

// TestExternalDepthOneRemovals removes keys whose parent router hangs
// directly off the inner sentinel.
func TestExternalDepthOneRemovals(t *testing.T) {
	tr := NewExternal(link.Config{Mode: link.ModeHTM, Threads: 1})
	tr.Register(0)
	// Build then tear down in both orders.
	for _, order := range [][]uint64{{1, 2, 3}, {3, 2, 1}} {
		for _, k := range order {
			tr.Insert(0, k)
		}
		for _, k := range order {
			if !tr.Remove(0, k) {
				t.Fatalf("remove %d", k)
			}
			if !tr.ValidateRouting() {
				t.Fatalf("routing invalid after removing %d", k)
			}
		}
	}
}

func TestInternalRejectsTMHP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewInternal(link.ModeTMHP) did not panic")
		}
	}()
	NewInternal(link.Config{Mode: link.ModeTMHP, Threads: 1})
}

func TestKeyRangeGuard(t *testing.T) {
	tr := NewInternal(link.Config{Mode: link.ModeHTM, Threads: 1})
	tr.Register(0)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized key accepted")
		}
	}()
	tr.Insert(0, MaxKey+1)
}
