// Package link is the hand-over-hand window protocol, written once for
// every structure family (lists, hash table, trees, skiplist).
//
// A hand-over-hand operation splits its traversal into window
// transactions. The link is what carries the traversal position from one
// window to the next, and it is the only thing the reclamation schemes
// the paper compares differ in:
//
//	ModeRR    — a revocable reservation on the window-start node
//	ModeHTM   — never cuts (the whole operation is one transaction)
//	ModeTMHP  — a thread-local start handle + a published hazard pointer
//	ModeTMHE  — a thread-local start handle + a published era reservation
//	ModeTMVBR — a thread-local start handle, revalidated on resume
//	ModeREF   — a thread-local start handle + a transactional refcount
//	ModeER    — one epoch-bracketed, early-releasing transaction
//
// A structure embeds *Base and drives the protocol through Start (where
// does this window begin?), Hold (attach the link to the node the next
// window resumes from), Terminal (drop it at operation end) and Reclaim
// (a node left the structure: revoke and free at the commit point, or
// mark it dead and retire it). Each mechanism is one implementation of
// the unexported link interface (mech.go); the structures never switch
// on the mode.
//
// TMHP's resume protocol deserves a note. A window ends by publishing a
// hazard on the new start node and *then* transactionally loading its
// dead flag. Atomics are sequentially consistent, so if a concurrent
// remover's hazard scan missed our publication, the scan (and hence the
// remover's commit, which precedes its retire) happened before our load —
// which must then observe a bumped version, fail snapshot extension
// against the unlink write we read past, and abort this window. Either
// the node is protected or we never resume from it.
//
// TMHE runs the same protocol with "hazard" read as "era reservation":
// the published era E satisfies birth <= E (the node was allocated before
// we observed it; eras only grow) and, when a remover's scan sees the
// publication, del >= E (the retire stamps an era at least as new), so E
// lies inside the retiree's lifetime interval and the scan keeps it.
// If the scan instead missed the publication, the TMHP ordering argument
// applies unchanged and the dead load kills the resume.
//
// TMVBR publishes nothing, so the held start node can be freed — and its
// arena slot recycled — between windows. Resume therefore revalidates,
// as VBR (Sheffi, Herlihy & Petrank) prescribes: a read of possibly
// reclaimed memory is allowed only if a version check rejects it before
// the value is used. The dead flag is loaded once, *without* the guard's
// poison hook, and the value is trusted only if the arena generation
// still names the held incarnation after the load. A free before the
// check is caught by the check; a free after it finds a live, not-dead
// read of the correct incarnation pinned in the read set, and the retire
// fence dooms the transaction at validation — the fence is what makes
// "no reservation at all" sound here, exactly as in VBR's checkpoint
// scheme. The load is the one unguarded transactional read in the
// structures: it may observe the poison a concurrent free writes, and
// the generation check discards that value, so a guarded load would
// report a committed read of freed memory that was never used.
package link

import (
	"fmt"

	"hohtx/internal/core"
)

// Mode selects the synchronization/reclamation mechanism.
type Mode uint8

const (
	// ModeRR is hand-over-hand transactions with revocable reservations
	// and immediate (precise) reclamation — the paper's contribution.
	ModeRR Mode = iota
	// ModeHTM performs each whole operation in a single transaction with
	// no reservations (the paper's "HTM" baseline).
	ModeHTM
	// ModeTMHP is hand-over-hand transactions with hazard pointers and
	// batched deferred reclamation (the paper's "TMHP" baseline).
	ModeTMHP
	// ModeREF is hand-over-hand transactions with transactional
	// reference counts on window boundary nodes (the paper's "REF"
	// baseline; singly linked chains only).
	ModeREF
	// ModeER runs each operation as one transaction that early-releases
	// traversal reads more than W nodes behind the frontier (Herlihy et
	// al. [17]; the paper's §1 discusses this as the STM-only alternative
	// to hand-over-hand windows — it cannot run on real HTM, and it
	// cannot reclaim precisely, so removals defer reclamation through
	// epochs. Singly linked chains only; an extension comparator, not one
	// of the paper's measured series.)
	ModeER
	// ModeTMHE is hand-over-hand transactions with hazard-era deferred
	// reclamation (Ramalhete & Correia; DESIGN.md §14): the TMHP window
	// protocol verbatim, but the published reservation is an era, not a
	// pointer, so protection costs an epoch-style clock read while a
	// stalled reader strands only the nodes whose lifetime interval it
	// covers.
	ModeTMHE
	// ModeTMVBR is hand-over-hand transactions with version-based
	// reclamation (Sheffi, Herlihy & Petrank; DESIGN.md §14): no
	// reservations at all — retirees are freed once the STM's version
	// fence advances past their retire stamp, and a resumed traversal
	// revalidates its held node by arena generation + dead mark instead
	// of pinning it.
	ModeTMVBR
)

var modeNames = [...]string{
	ModeRR: "RR", ModeHTM: "HTM", ModeTMHP: "TMHP", ModeREF: "REF",
	ModeER: "ER", ModeTMHE: "TMHE", ModeTMVBR: "TMVBR",
}

// String returns the mode's series label ("RR" for every reservation
// kind; a built structure's Name carries the kind's own label).
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Deferred reports whether the mode reclaims through a deferred scheme
// (removed nodes outlive their unlinking commit).
func (m Mode) Deferred() bool {
	return m == ModeTMHP || m == ModeTMHE || m == ModeTMVBR || m == ModeER
}

// Windowed reports whether operations are split into window
// transactions that resume across a link (false for the single-
// transaction modes HTM and ER).
func (m Mode) Windowed() bool { return m != ModeHTM && m != ModeER }

// ParseVariant maps a series label to its mode and, for ModeRR, the
// reservation kind: "HTM", "TMHP", "TMHE", "TMVBR", "REF", "ER", or one
// of the six reservation labels ("RR-FA" … "RR-V").
func ParseVariant(name string) (Mode, core.Kind, bool) {
	for m := ModeHTM; int(m) < len(modeNames); m++ {
		if modeNames[m] == name {
			return m, 0, true
		}
	}
	for _, k := range core.Kinds() {
		if k.String() == name {
			return ModeRR, k, true
		}
	}
	return 0, 0, false
}

// families is the one family × mode support table: which mechanisms each
// structure family implements, in the order the benchmark and torture
// harnesses list them. The paper defines REF only for the singly linked
// list and TMHP only for the lists and the external tree; ER and REF
// need a singly linked chain; the internal tree's successor swap moves
// keys upward, which only revocation can make safe.
var families = map[string][]Mode{
	"singly": {ModeRR, ModeHTM, ModeTMHP, ModeTMHE, ModeTMVBR, ModeREF, ModeER},
	"doubly": {ModeRR, ModeHTM, ModeTMHP, ModeTMHE, ModeTMVBR},
	"hash":   {ModeRR, ModeHTM, ModeTMHP, ModeTMHE, ModeTMVBR, ModeREF, ModeER},
	"itree":  {ModeRR, ModeHTM},
	"etree":  {ModeRR, ModeHTM, ModeTMHP, ModeTMHE, ModeTMVBR},
	"skip":   {ModeRR, ModeHTM, ModeTMHE, ModeTMVBR},
}

// Modes returns the modes a structure family implements (nil for an
// unknown family).
func Modes(family string) []Mode { return families[family] }

// Supports reports whether the structure family implements mode m.
func Supports(family string, m Mode) bool {
	for _, x := range families[family] {
		if x == m {
			return true
		}
	}
	return false
}

// mustSupport panics if family does not implement m; constructors call
// it so an undefined combination fails loudly instead of running a
// mechanism the structure was never written for.
func mustSupport(family string, m Mode) {
	if !Supports(family, m) {
		panic(fmt.Sprintf("link: %v is undefined for %s", m, family))
	}
}
