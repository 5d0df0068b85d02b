package list

import (
	"hohtx/internal/arena"
)

// Reclamation-safety hooks for the list node layout; package link
// installs them (see its guard.go for the protocol).

// retireNode lifts every cell version of a freed node to the fence; see
// stm.Word.Retire. Installed for every mode, not just guard runs.
func retireNode(n *node, ver uint64) {
	n.key.Retire(ver)
	n.next.Retire(ver)
	n.prev.Retire(ver)
	n.dead.Retire(ver)
	n.rc.Retire(ver)
}

// poisonNode overwrites every value word of a freed node with the poison
// sentinel. Stores are atomic (stm.Word.Poison), so racing doomed readers
// stay race-detector clean.
func poisonNode(n *node) {
	n.key.Poison(arena.PoisonWord)
	n.next.Poison(arena.PoisonWord)
	n.prev.Poison(arena.PoisonWord)
	n.dead.Poison(arena.PoisonWord)
	n.rc.Poison(arena.PoisonWord)
}
