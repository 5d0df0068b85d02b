package list

import (
	"errors"
	"hohtx/internal/link"
	"sync"
	"sync/atomic"
	"testing"

	"hohtx/internal/core"
	"hohtx/internal/obs"
	"hohtx/internal/sets"
)

func TestAscendSequential(t *testing.T) {
	for _, k := range core.Kinds() {
		l := New(link.Config{Mode: link.ModeRR, RRKind: k, Threads: 1, Window: core.Window{W: 3}})
		t.Run(l.Name(), func(t *testing.T) {
			l.Register(0)
			for key := uint64(2); key <= 40; key += 2 {
				l.Insert(0, key)
			}
			var got []uint64
			l.Ascend(0, 0, func(key uint64) bool {
				got = append(got, key)
				return true
			})
			if len(got) != 20 {
				t.Fatalf("ascend yielded %d keys, want 20", len(got))
			}
			for i, key := range got {
				if key != uint64(2*(i+1)) {
					t.Fatalf("key[%d] = %d", i, key)
				}
			}
			// From a midpoint.
			got = got[:0]
			l.Ascend(0, 21, func(key uint64) bool {
				got = append(got, key)
				return true
			})
			if len(got) != 10 || got[0] != 22 {
				t.Fatalf("ascend from 21: %v", got)
			}
			// Early stop.
			count := 0
			l.Ascend(0, 0, func(key uint64) bool {
				count++
				return count < 5
			})
			if count != 5 {
				t.Fatalf("early stop delivered %d", count)
			}
			// The early stop must not leak a hold into the next op.
			if !l.Lookup(0, 2) {
				t.Fatal("lookup broken after early-stopped ascend")
			}
		})
	}
}

func TestAscendHTMMode(t *testing.T) {
	l := New(link.Config{Mode: link.ModeHTM, Threads: 1})
	l.Register(0)
	for key := uint64(1); key <= 10; key++ {
		l.Insert(0, key)
	}
	var n int
	l.Ascend(0, 0, func(uint64) bool { n++; return true })
	if n != 10 {
		t.Fatalf("HTM ascend yielded %d", n)
	}
}

// TestAscendUnsupportedModes pins the typed-error contract: the
// deferred-reclamation modes refuse to scan with sets.ErrScanUnsupported
// (they used to panic, which an ASCEND wire request could trigger
// remotely) and never call fn.
func TestAscendUnsupportedModes(t *testing.T) {
	for _, mode := range []link.Mode{link.ModeTMHP, link.ModeTMHE, link.ModeTMVBR, link.ModeREF, link.ModeER} {
		l := New(link.Config{Mode: mode, Threads: 1, Window: core.Window{W: 4}})
		l.Register(0)
		l.Insert(0, 1)
		called := false
		err := l.Ascend(0, 0, func(uint64) bool { called = true; return true })
		if !errors.Is(err, sets.ErrScanUnsupported) {
			t.Errorf("mode %d: Ascend err = %v, want ErrScanUnsupported", mode, err)
		}
		if called {
			t.Errorf("mode %d: fn called despite unsupported scan", mode)
		}
		if l.CanAscend() {
			t.Errorf("mode %d: CanAscend = true", mode)
		}
	}
	for _, mode := range []link.Mode{link.ModeRR, link.ModeHTM} {
		l := New(link.Config{Mode: mode, Threads: 1})
		if !l.CanAscend() {
			t.Errorf("mode %d: CanAscend = false", mode)
		}
	}
}

// TestAscendPanicReleasesHold is the hold-leak regression: a consumer
// that panics mid-scan must not leave the iterator's reservation behind.
// Before the deferred release, the leaked hold made the tid's next
// operation resume from the stale reserved node — Lookup of a smaller
// present key returned false — and the node stayed pinned in the
// reservation table.
func TestAscendPanicReleasesHold(t *testing.T) {
	l := New(link.Config{Mode: link.ModeRR, RRKind: core.KindV, Threads: 2,
		Window: core.Window{W: 2, NoScatter: true}})
	l.Register(0)
	l.Register(1)
	baseline := l.LiveNodes()
	for k := uint64(1); k <= 20; k++ {
		l.Insert(0, k)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the consumer panic to propagate")
			}
		}()
		_ = l.Ascend(0, 0, func(k uint64) bool {
			if k == 6 {
				panic("consumer bug")
			}
			return true
		})
	}()
	// The genuinely failing property under the bug: the same tid's next
	// operation must start from a clean position, not the stale hold.
	if !l.Lookup(0, 1) {
		t.Fatal("Lookup(1) false after panicking scan: reservation hold leaked")
	}
	// And the held node must be reclaimable (the ISSUE's wording): every
	// key removes cleanly and memory returns to the baseline, precisely.
	for k := uint64(1); k <= 20; k++ {
		if !l.Remove(1, k) {
			t.Fatalf("Remove(%d) failed after panicking scan", k)
		}
	}
	if live := l.LiveNodes(); live != baseline {
		t.Fatalf("live nodes = %d after removing all, want baseline %d", live, baseline)
	}
}

// TestAscendRenavigation pins the cursor-revocation path: removing the
// node the iterator reserved forces the next window to re-navigate from
// the head by key, which the ascend_renavigations histogram counts.
func TestAscendRenavigation(t *testing.T) {
	dom := obs.NewDomain(obs.DomainConfig{Name: "iter-test", Threads: 2, SampleShift: 0})
	l := New(link.Config{Mode: link.ModeRR, RRKind: core.KindV, Threads: 2,
		Window: core.Window{W: 2, NoScatter: true}, Obs: dom})
	l.Register(0)
	l.Register(1)
	for k := uint64(1); k <= 30; k++ {
		l.Insert(0, k)
	}
	// With W=2 and no scatter the first window batches keys 1,2 and lands
	// its hold on the node holding key 2. Removing that node from another
	// tid revokes the cursor mid-scan.
	var got []uint64
	if err := l.Ascend(0, 0, func(k uint64) bool {
		if k == 1 {
			if !l.Remove(1, 2) {
				t.Fatal("Remove(2) failed")
			}
		}
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatalf("Ascend: %v", err)
	}
	// Key 2 was batched (and so delivered) before its removal; everything
	// else was present throughout. Exactly-once, ascending, complete.
	if len(got) != 30 {
		t.Fatalf("delivered %d keys, want 30: %v", len(got), got)
	}
	for i, k := range got {
		if k != uint64(i+1) {
			t.Fatalf("got[%d] = %d, want %d", i, k, i+1)
		}
	}
	snap := dom.Snapshot()
	if h, ok := snap.Hist(obs.HistAscendRenavs); !ok || h.Sum < 1 {
		t.Fatalf("ascend_renavigations sum = %+v, want >= 1", h)
	}
	if h, ok := snap.Hist(obs.HistAscendWindows); !ok || h.Count != 1 || h.Sum < 2 {
		t.Fatalf("ascend_windows = %+v, want one scan of >= 2 windows", h)
	}
}

// TestAscendConcurrent checks the weak-consistency contract: keys present
// for the whole iteration are delivered exactly once, in order, while
// concurrent churn removes and reinserts other keys (with immediate
// reclamation putting their nodes back into circulation).
func TestAscendConcurrent(t *testing.T) {
	const stable = 50 // odd keys 1..99 stay put
	l := New(link.Config{Mode: link.ModeRR, RRKind: core.KindV, Threads: 4, Window: core.Window{W: 2}})
	l.Register(0)
	for k := uint64(1); k <= 99; k += 2 {
		l.Insert(0, k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 1; w <= 3; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			l.Register(tid)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64((i*2+tid*4)%100) + 100 // churn keys 100..199
				l.Insert(tid, k)
				l.Remove(tid, k)
			}
		}(w)
	}
	var violations atomic.Int64
	for round := 0; round < 30; round++ {
		var got []uint64
		l.Ascend(0, 0, func(key uint64) bool {
			got = append(got, key)
			return true
		})
		seen := 0
		lastKey := uint64(0)
		for _, k := range got {
			if k <= lastKey {
				violations.Add(1) // out of order or duplicate
			}
			lastKey = k
			if k <= 99 && k%2 == 1 {
				seen++
			}
		}
		if seen != stable {
			t.Fatalf("round %d: saw %d of %d stable keys", round, seen, stable)
		}
	}
	close(stop)
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d ordering violations", violations.Load())
	}
}
