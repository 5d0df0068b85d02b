package main

import (
	"math/rand"
	"testing"

	"hohtx/internal/sets"
)

func TestModelAnswers(t *testing.T) {
	m := newModel(16)
	steps := []struct {
		kind sets.OpKind
		key  uint64
		got  bool
		ok   bool
	}{
		{sets.OpLookup, 4, false, true},
		{sets.OpLookup, 4, true, false}, // phantom key
		{sets.OpInsert, 4, true, true},
		{sets.OpInsert, 4, true, false}, // double insert acknowledged
		{sets.OpLookup, 4, true, true},
		{sets.OpRemove, 6, true, false}, // remove of an absent key acknowledged
		{sets.OpRemove, 4, true, true},
		{sets.OpRemove, 4, false, true},
		{sets.OpInsert, 8, false, false}, // insert of an absent key refused
	}
	for i, s := range steps {
		if ok := m.apply(packOp(s.kind, s.key), s.got); ok != s.ok {
			t.Fatalf("step %d: apply(%v %d, %v) = %v, want %v", i, s.kind, s.key, s.got, ok, s.ok)
		}
	}
	if m.n != 0 || m.present[4] || m.present[6] || m.present[8] {
		t.Fatalf("model after steps: n=%d present=%v", m.n, m.present)
	}
}

func TestCheckKeys(t *testing.T) {
	models := []*model{newModel(10), newModel(10)}
	for _, k := range []uint64{2, 3, 8} {
		models[k%owners].apply(packOp(sets.OpInsert, k), true)
	}
	if p := checkKeys([]uint64{2, 3, 8}, models); len(p) != 0 {
		t.Fatalf("matching keys reported: %v", p)
	}
	for _, snap := range [][]uint64{{2, 3}, {2, 3, 8, 9}, {2, 3, 7}, {3, 2, 8}} {
		if p := checkKeys(snap, models); len(p) == 0 {
			t.Errorf("snapshot %v passed against {2 3 8}", snap)
		}
	}
}

func TestGenOpsOwnsKeys(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for owner := 0; owner < owners; owner++ {
		gets := 0
		for _, op := range genOps(r, owner, 512, 10000, mix{50, 25, 25}) {
			kind, key := unpackOp(op)
			if key < 1 || key > 512 || int(key%owners) != owner {
				t.Fatalf("owner %d drew key %d", owner, key)
			}
			if kind == sets.OpLookup {
				gets++
			}
		}
		if gets < 4700 || gets > 5300 {
			t.Fatalf("owner %d: %d lookups of 10000 for a 50%% mix", owner, gets)
		}
	}
	a := genOps(rand.New(rand.NewSource(3)), 1, 64, 100, mix{90, 5, 5})
	b := genOps(rand.New(rand.NewSource(3)), 1, 64, 100, mix{90, 5, 5})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different streams")
		}
	}
	keys := prefillKeys(rand.New(rand.NewSource(1)), 100)
	seen := map[uint64]bool{}
	for _, k := range keys {
		if k < 1 || k > 100 || seen[k] {
			t.Fatalf("prefill key %d out of range or repeated", k)
		}
		seen[k] = true
	}
	if len(keys) != 50 {
		t.Fatalf("prefill of 100 keys has %d", len(keys))
	}
}
