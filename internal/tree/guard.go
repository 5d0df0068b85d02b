package tree

import (
	"hohtx/internal/arena"
)

// Reclamation-safety hooks for the tree node layout; package link
// installs them (see its guard.go for the protocol).

// retireNode lifts every cell version of a freed tree node to the fence;
// see stm.Word.Retire. Installed for every mode, not just guard runs.
func retireNode(n *node, ver uint64) {
	n.key.Retire(ver)
	n.left.Retire(ver)
	n.right.Retire(ver)
	n.dead.Retire(ver)
}

// poisonNode overwrites every value word of a freed tree node with the
// poison sentinel (atomic stores).
func poisonNode(n *node) {
	n.key.Poison(arena.PoisonWord)
	n.left.Poison(arena.PoisonWord)
	n.right.Poison(arena.PoisonWord)
	n.dead.Poison(arena.PoisonWord)
}
