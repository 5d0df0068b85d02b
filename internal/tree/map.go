package tree

import (
	"hohtx/internal/arena"
	"hohtx/internal/link"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Map is an ordered key→value map over the external hand-over-hand tree:
// what a downstream user of this library typically wants instead of a bare
// set. Values are uint64 payloads stored in a transactional cell of the
// leaf, so Put's read-modify-write of an existing key is atomic with the
// traversal that found it, and Get returns the value that was current at
// its final window's snapshot.
//
// Routers never carry values; a leaf's value cell lives in the node's
// otherwise-unused dead Word (the external tree uses the dead mark only
// under the deferred modes, which the Map forbids — it requires a precise
// mode, keeping the value cell free).
type Map struct {
	t *External
}

// NewMap constructs an ordered map. cfg.Mode must be ModeRR or ModeHTM
// (the deferred-reclamation modes would alias the value storage and are
// not what a map user wants anyway).
func NewMap(cfg link.Config) *Map {
	if cfg.Mode.Deferred() {
		panic("tree: Map requires ModeRR or ModeHTM")
	}
	return &Map{t: NewExternal(cfg)}
}

// Name labels the map.
func (m *Map) Name() string { return m.t.Name() + "/map" }

// Register must be called once per thread before its first operation.
func (m *Map) Register(tid int) { m.t.Register(tid) }

// Finish flushes per-thread state (no-op for precise modes).
func (m *Map) Finish(tid int) { m.t.Finish(tid) }

// valueCell returns the leaf's payload cell.
func valueCell(n *node) *stm.Word { return &n.dead }

// Put maps key to val, returning the previous value and whether the key
// was already present.
func (m *Map) Put(tid int, key, val uint64) (prev uint64, existed bool) {
	if key > MaxKey {
		panic("tree: key out of range")
	}
	t := m.t
	res := t.applyExt(tid, key, 1,
		func(tx *stm.Tx, gH, pH, leafH arena.Handle, pDir, lDir int) bool {
			leaf := t.Arena.At(leafH)
			if leaf.key.Load(tx) == key {
				cell := valueCell(leaf)
				prev = cell.Load(tx)
				cell.Store(tx, val)
				return true
			}
			newLeaf := t.allocNode(tx, tid, key, arena.Nil, arena.Nil)
			valueCell(t.Arena.At(newLeaf)).Store(tx, val)
			leafKey := leaf.key.Load(tx)
			var router arena.Handle
			if key < leafKey {
				router = t.allocNode(tx, tid, leafKey, newLeaf, leafH)
			} else {
				router = t.allocNode(tx, tid, key, leafH, newLeaf)
			}
			child(t.Arena.At(pH), lDir).Store(tx, uint64(router))
			return false
		},
	)
	return prev, res
}

// Get returns the value mapped to key.
func (m *Map) Get(tid int, key uint64) (uint64, bool) {
	t := m.t
	var val uint64
	ok := t.applyExt(tid, key, 0,
		func(tx *stm.Tx, gH, pH, leafH arena.Handle, pDir, lDir int) bool {
			leaf := t.Arena.At(leafH)
			if leaf.key.Load(tx) != key {
				return false
			}
			val = valueCell(leaf).Load(tx)
			return true
		},
	)
	return val, ok
}

// Delete removes key, returning its value and whether it was present. The
// leaf and its parent router are reclaimed before Delete returns (precise).
func (m *Map) Delete(tid int, key uint64) (uint64, bool) {
	t := m.t
	var val uint64
	ok := t.applyExt(tid, key, 2,
		func(tx *stm.Tx, gH, pH, leafH arena.Handle, pDir, lDir int) bool {
			leaf := t.Arena.At(leafH)
			if leaf.key.Load(tx) != key {
				return false
			}
			val = valueCell(leaf).Load(tx)
			sibling := child(t.Arena.At(pH), 1-lDir).Load(tx)
			child(t.Arena.At(gH), pDir).Store(tx, sibling)
			t.Reclaim(tx, tid, pH)
			t.Reclaim(tx, tid, leafH)
			return true
		},
	)
	return val, ok
}

// Len counts entries (quiescence required).
func (m *Map) Len() int { return len(m.t.Snapshot()) }

// Entries returns the (key, value) pairs in ascending key order
// (quiescence required).
func (m *Map) Entries() (keys, vals []uint64) {
	t := m.t
	var walk func(h arena.Handle)
	walk = func(h arena.Handle) {
		if h.IsNil() {
			return
		}
		n := t.Arena.At(h)
		l := arena.Handle(n.left.Raw())
		if l.IsNil() {
			if k := n.key.Raw(); k <= MaxKey {
				keys = append(keys, k)
				vals = append(vals, valueCell(n).Raw())
			}
			return
		}
		walk(l)
		walk(arena.Handle(n.right.Raw()))
	}
	walk(t.root)
	return keys, vals
}

// LiveNodes implements sets.MemoryReporter via the underlying tree.
func (m *Map) LiveNodes() uint64 { return m.t.LiveNodes() }

// DeferredNodes implements sets.MemoryReporter (always 0: precise modes).
func (m *Map) DeferredNodes() uint64 { return m.t.DeferredNodes() }

var _ sets.MemoryReporter = (*Map)(nil)
