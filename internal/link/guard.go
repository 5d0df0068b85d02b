package link

import (
	"hohtx/internal/arena"
	"hohtx/internal/stm"
)

// The guard-mode use-after-free sanitizer's load wrappers.
//
// Every Free first retires the node's cell versions (Layout.Retire,
// installed for every mode via arena.SetRetire): a transaction that read
// its way to the node before the unlinking commit's write-back cannot then
// take a fresh read of the dead cells — the lifted versions force a
// snapshot extension, which fails on the rewritten link and aborts the
// attempt. Real HTM gets this for free from hardware conflict detection;
// without the retire step a read-only window (which never revalidates at
// commit) could assemble a zombie snapshot from a recycled node. The
// torture harness's sanitizer is what caught that gap, on singly/TMHP
// under a loaded scheduler.
//
// With Config.Guard additionally set, freed nodes' value words are
// overwritten with arena.PoisonWord before the slot can be reallocated,
// and every transactional load on the traversal paths goes through the
// wrappers below. After retirement, a doomed (pre-free snapshot) reader
// cannot validate a load of the sentinel at all, so any observed poison
// read comes from a transaction whose snapshot postdates the free — a
// handle used after its node was reclaimed. Reporting is still
// commit-gated: the wrappers register a commit hook, and since commit
// hooks are discarded on abort, ReportUAF fires precisely for attempts
// that dereferenced a dead handle and then passed validation. That is the
// checkable meaning of "precise reclamation": no committed transaction
// ever observes freed memory. (The one deliberate exception is TMVBR's
// resume load, whose value a generation check discards; see the package
// comment.)

// notePoison records a poison read on h and arms commit-gated violation
// reporting for the current attempt.
func (b *Base[N]) notePoison(tx *stm.Tx, tid int, h arena.Handle) {
	b.Arena.NotePoisonRead(h)
	tx.OnCommitCall(b.uafHook, tidArg(tid), uint64(h), 0)
}

// LoadWord transactionally loads a value word of the node named by h,
// checking for the poison sentinel in guard mode.
func (b *Base[N]) LoadWord(tx *stm.Tx, tid int, h arena.Handle, w *stm.Word) uint64 {
	v := w.Load(tx)
	if b.guard && v == arena.PoisonWord {
		b.notePoison(tx, tid, h)
	}
	return v
}

// LoadLink is LoadWord for handle-bearing cells. The sentinel is defused
// to Nil so that a benign doomed reader stops traversing instead of
// panicking in arena.At (the sentinel carries the reserved user bits);
// the attempt still aborts at validation, and a committing attempt still
// reports.
func (b *Base[N]) LoadLink(tx *stm.Tx, tid int, h arena.Handle, w *stm.Word) arena.Handle {
	v := w.Load(tx)
	if b.guard && v == arena.PoisonWord {
		b.notePoison(tx, tid, h)
		return arena.Nil
	}
	return arena.Handle(v)
}
