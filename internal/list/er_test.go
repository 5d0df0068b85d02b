package list

import (
	"hohtx/internal/link"
	"sync"
	"testing"

	"hohtx/internal/core"
)

// ER-specific behavior: early release keeps transactions' tracked read
// sets small but *cannot* reclaim precisely — removals defer through
// epochs until every thread active at retirement has quiesced.

func newER(threads, w int) *List {
	return New(link.Config{Mode: link.ModeER, Threads: threads, Window: core.Window{W: w}, ScanThreshold: 4})
}

func TestERDefersReclamation(t *testing.T) {
	l := newER(2, 4)
	l.Register(0)
	for k := uint64(1); k <= 40; k++ {
		l.Insert(0, k)
	}
	for k := uint64(1); k <= 40; k++ {
		l.Remove(0, k)
	}
	// Epoch reclamation frees only what is two epochs old; with ongoing
	// single-thread activity most retirements drain, but the most recent
	// ones must still be deferred (this is the imprecision the paper's
	// mechanism removes).
	if l.LiveNodes() == 1 && l.DeferredNodes() == 0 {
		t.Skip("epochs drained everything already (legal but unusual); nothing to assert")
	}
	l.Finish(0)
	l.Finish(0) // second flush advances past the final epoch
	if def := l.DeferredNodes(); def != 0 {
		t.Fatalf("deferred = %d after full quiescent flush", def)
	}
	if live := l.LiveNodes(); live != 1 {
		t.Fatalf("live = %d after flush, want 1", live)
	}
}

// TestERSmallReadFootprint: with the HTM-simulation capacity bound that
// would reject a whole-list traversal, ER operations must still commit
// speculatively (their tracked read suffix stays ~W), while a plain HTM
// traversal of the same list must overflow into serial mode.
func TestERSmallReadFootprint(t *testing.T) {
	const n = 300
	prof := profileWithCapacity(64)
	er := New(link.Config{Mode: link.ModeER, Threads: 1, Window: core.Window{W: 4}, Profile: prof, ScanThreshold: 8})
	htm := New(link.Config{Mode: link.ModeHTM, Threads: 1, Profile: prof})
	for _, l := range []*List{er, htm} {
		l.Register(0)
		for k := uint64(1); k <= n; k++ {
			l.Insert(0, k)
		}
		for i := 0; i < 50; i++ {
			l.Lookup(0, n) // full-length traversal
		}
	}
	if s := er.Runtime().Stats(); s.Aborts[capacityCause()] != 0 {
		t.Fatalf("ER hit %d capacity aborts; early release is not shrinking the read set", s.Aborts[capacityCause()])
	}
	if s := htm.Runtime().Stats(); s.SerialCommits == 0 {
		t.Fatal("HTM baseline never serialized despite capacity 64 over a 300-node traversal")
	}
}

// TestERConcurrentWriters exercises the version-bump-on-removed-node
// protocol: concurrent inserts and removes around the same region must
// keep the balance invariant despite released reads.
func TestERConcurrentWriters(t *testing.T) {
	const threads = 6
	l := newER(threads, 3)
	var wg sync.WaitGroup
	var ins, rem int64
	var mu sync.Mutex
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			l.Register(tid)
			li, lr := int64(0), int64(0)
			for i := 0; i < 2500; i++ {
				k := uint64((i*7+tid)%96) + 1
				if i&1 == 0 {
					if l.Insert(tid, k) {
						li++
					}
				} else {
					if l.Remove(tid, k) {
						lr++
					}
				}
			}
			l.Finish(tid)
			mu.Lock()
			ins += li
			rem += lr
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	snap := l.Snapshot()
	if int64(len(snap)) != ins-rem {
		t.Fatalf("balance violated: |set|=%d ins-rem=%d", len(snap), ins-rem)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			t.Fatal("snapshot unsorted")
		}
	}
}
