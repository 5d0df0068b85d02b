package skiplist

import (
	"hohtx/internal/arena"
)

// Reclamation-safety hooks for the skiplist node layout; package link
// installs them (see its guard.go for the protocol).

// retireNode lifts every cell version of a freed skiplist node to the
// fence; see stm.Word.Retire. Installed for every mode, not just guard
// runs.
func retireNode(n *node, ver uint64) {
	n.key.Retire(ver)
	n.height.Retire(ver)
	n.dead.Retire(ver)
	for l := 0; l < MaxHeight; l++ {
		n.next[l].Retire(ver)
	}
}

// poisonNode overwrites every value word of a freed skiplist node with the
// poison sentinel (atomic stores).
func poisonNode(n *node) {
	n.key.Poison(arena.PoisonWord)
	n.height.Poison(arena.PoisonWord)
	n.dead.Poison(arena.PoisonWord)
	for l := 0; l < MaxHeight; l++ {
		n.next[l].Poison(arena.PoisonWord)
	}
}
