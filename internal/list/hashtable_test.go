package list

import (
	"hohtx/internal/link"
	"math/rand"
	"testing"

	"hohtx/internal/core"
	"hohtx/internal/sets"
)

func hashVariants(threads int) []*HashTable {
	var out []*HashTable
	for _, k := range core.Kinds() {
		out = append(out, NewHashTable(link.Config{
			Mode: link.ModeRR, RRKind: k, Threads: threads, Window: core.Window{W: 4},
		}, 16))
	}
	out = append(out,
		NewHashTable(link.Config{Mode: link.ModeHTM, Threads: threads}, 16),
		NewHashTable(link.Config{Mode: link.ModeTMHP, Threads: threads, Window: core.Window{W: 4}, ScanThreshold: 8}, 16),
		NewHashTable(link.Config{Mode: link.ModeTMHE, Threads: threads, Window: core.Window{W: 4}, ScanThreshold: 8}, 16),
		NewHashTable(link.Config{Mode: link.ModeTMVBR, Threads: threads, Window: core.Window{W: 4}, ScanThreshold: 8}, 16),
	)
	return out
}

func TestHashTableSequential(t *testing.T) {
	for _, h := range hashVariants(1) {
		t.Run(h.Name(), func(t *testing.T) {
			h.Register(0)
			rng := rand.New(rand.NewSource(13))
			model := map[uint64]bool{}
			for i := 0; i < 4000; i++ {
				key := uint64(rng.Intn(512)) + 1
				switch rng.Intn(3) {
				case 0:
					if got, want := h.Insert(0, key), !model[key]; got != want {
						t.Fatalf("Insert(%d) = %v want %v", key, got, want)
					}
					model[key] = true
				case 1:
					if got, want := h.Remove(0, key), model[key]; got != want {
						t.Fatalf("Remove(%d) = %v want %v", key, got, want)
					}
					delete(model, key)
				default:
					if got, want := h.Lookup(0, key), model[key]; got != want {
						t.Fatalf("Lookup(%d) = %v want %v", key, got, want)
					}
				}
			}
			var want []uint64
			for k := range model {
				want = append(want, k)
			}
			if got := h.Snapshot(); !sets.KeysEqual(got, want) {
				t.Fatal("final snapshot mismatch")
			}
			h.Finish(0)
		})
	}
}

func TestHashTableBucketing(t *testing.T) {
	h := NewHashTable(link.Config{Mode: link.ModeRR, RRKind: core.KindV, Threads: 1}, 9)
	if h.Buckets() != 16 {
		t.Fatalf("buckets = %d, want 16 (rounded up)", h.Buckets())
	}
	h.Register(0)
	for k := uint64(1); k <= 512; k++ {
		h.Insert(0, k)
	}
	sizes := h.BucketSizes()
	total, empty := 0, 0
	for _, n := range sizes {
		total += n
		if n == 0 {
			empty++
		}
	}
	if total != 512 {
		t.Fatalf("bucket sizes sum to %d, want 512", total)
	}
	if empty > 0 {
		t.Fatalf("%d of 16 buckets empty after 512 inserts: bad spread", empty)
	}
}

func TestHashTablePreciseReclamation(t *testing.T) {
	h := NewHashTable(link.Config{Mode: link.ModeRR, RRKind: core.KindXO, Threads: 1, Window: core.Window{W: 2}}, 8)
	h.Register(0)
	base := h.LiveNodes() // 8 sentinels
	if base != 8 {
		t.Fatalf("base live = %d, want 8 sentinels", base)
	}
	for k := uint64(1); k <= 200; k++ {
		h.Insert(0, k)
	}
	for k := uint64(1); k <= 200; k++ {
		h.Remove(0, k)
		if h.DeferredNodes() != 0 {
			t.Fatal("hash table deferred a free")
		}
	}
	if live := h.LiveNodes(); live != base {
		t.Fatalf("live = %d after emptying, want %d", live, base)
	}
}

func TestHashTableConcurrentStress(t *testing.T) {
	const threads = 8
	for _, h := range hashVariants(threads) {
		t.Run(h.Name(), func(t *testing.T) {
			runStress(t, h, threads, 1500, 1024, memAdapter{h})
		})
	}
}

// memAdapter corrects the sentinel count for the generic stress checker
// (runStress assumes 1 sentinel; the table has one per bucket).
type memAdapter struct{ h *HashTable }

func (m memAdapter) LiveNodes() uint64 {
	return m.h.LiveNodes() - uint64(m.h.Buckets()) + 1
}
func (m memAdapter) DeferredNodes() uint64 { return m.h.DeferredNodes() }
