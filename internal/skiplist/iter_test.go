package skiplist

import (
	"hohtx/internal/link"
	"sync"
	"sync/atomic"
	"testing"

	"hohtx/internal/core"
	"hohtx/internal/obs"
)

func TestSkipAscendSequential(t *testing.T) {
	for _, k := range core.Kinds() {
		s := New(link.Config{Mode: link.ModeRR, RRKind: k, Threads: 1, Window: core.Window{W: 3}})
		t.Run(s.Name(), func(t *testing.T) {
			s.Register(0)
			for key := uint64(2); key <= 80; key += 2 {
				s.Insert(0, key)
			}
			var got []uint64
			if err := s.Ascend(0, 0, func(key uint64) bool {
				got = append(got, key)
				return true
			}); err != nil {
				t.Fatalf("Ascend: %v", err)
			}
			if len(got) != 40 {
				t.Fatalf("ascend yielded %d keys, want 40: %v", len(got), got)
			}
			for i, key := range got {
				if key != uint64(2*(i+1)) {
					t.Fatalf("key[%d] = %d", i, key)
				}
			}
			// From a midpoint.
			got = got[:0]
			if err := s.Ascend(0, 41, func(key uint64) bool {
				got = append(got, key)
				return true
			}); err != nil {
				t.Fatalf("Ascend from 41: %v", err)
			}
			if len(got) != 20 || got[0] != 42 {
				t.Fatalf("ascend from 41: %v", got)
			}
			// Early stop must not leak a hold into the next op.
			count := 0
			if err := s.Ascend(0, 0, func(uint64) bool {
				count++
				return count < 5
			}); err != nil {
				t.Fatalf("early-stop Ascend: %v", err)
			}
			if count != 5 {
				t.Fatalf("early stop delivered %d", count)
			}
			if !s.Lookup(0, 2) {
				t.Fatal("lookup broken after early-stopped ascend")
			}
			if !s.CanAscend() {
				t.Fatal("CanAscend = false for RR skiplist")
			}
		})
	}
}

func TestSkipAscendHTMMode(t *testing.T) {
	s := New(link.Config{Mode: link.ModeHTM, Threads: 1})
	s.Register(0)
	for key := uint64(1); key <= 10; key++ {
		s.Insert(0, key)
	}
	var n int
	if err := s.Ascend(0, 0, func(uint64) bool { n++; return true }); err != nil {
		t.Fatalf("Ascend: %v", err)
	}
	if n != 10 {
		t.Fatalf("HTM ascend yielded %d", n)
	}
}

// TestSkipAscendPanicReleasesHold mirrors the list regression: a
// panicking consumer must not leave the cursor's reservation behind.
func TestSkipAscendPanicReleasesHold(t *testing.T) {
	s := New(link.Config{Mode: link.ModeRR, RRKind: core.KindV, Threads: 2,
		Window: core.Window{W: 2, NoScatter: true}})
	s.Register(0)
	s.Register(1)
	baseline := s.LiveNodes()
	for k := uint64(1); k <= 20; k++ {
		s.Insert(0, k)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the consumer panic to propagate")
			}
		}()
		_ = s.Ascend(0, 0, func(k uint64) bool {
			if k == 6 {
				panic("consumer bug")
			}
			return true
		})
	}()
	if !s.Lookup(0, 1) {
		t.Fatal("Lookup(1) false after panicking scan: reservation hold leaked")
	}
	for k := uint64(1); k <= 20; k++ {
		if !s.Remove(1, k) {
			t.Fatalf("Remove(%d) failed after panicking scan", k)
		}
	}
	if live := s.LiveNodes(); live != baseline {
		t.Fatalf("live nodes = %d after removing all, want baseline %d", live, baseline)
	}
}

// TestSkipAscendRenavigation removes held nodes behind the cursor's back
// and checks the scan both survives (complete, ascending, exactly-once
// for present-throughout keys) and counts at least one re-navigation.
func TestSkipAscendRenavigation(t *testing.T) {
	dom := obs.NewDomain(obs.DomainConfig{Name: "skip-iter-test", Threads: 2, SampleShift: 0})
	s := New(link.Config{Mode: link.ModeRR, RRKind: core.KindV, Threads: 2,
		Window: core.Window{W: 2, NoScatter: true}, Obs: dom})
	s.Register(0)
	s.Register(1)
	for k := uint64(1); k <= 30; k++ {
		s.Insert(0, k)
	}
	// Remove the key right after each delivered key: whichever node the
	// cursor reserved at a cut, some removal will hit it.
	removed := map[uint64]bool{}
	var got []uint64
	if err := s.Ascend(0, 0, func(k uint64) bool {
		if k+1 <= 30 && !removed[k+1] {
			removed[k+1] = true
			s.Remove(1, k+1)
		}
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatalf("Ascend: %v", err)
	}
	last := uint64(0)
	for _, k := range got {
		if k <= last {
			t.Fatalf("out of order / duplicate at %d: %v", k, got)
		}
		last = k
	}
	if got[0] != 1 {
		t.Fatalf("first delivered key = %d, want 1", got[0])
	}
	snap := dom.Snapshot()
	if h, ok := snap.Hist(obs.HistAscendRenavs); !ok || h.Sum < 1 {
		t.Fatalf("ascend_renavigations = %+v, want sum >= 1", h)
	}
}

// TestSkipAscendConcurrent checks the weak-consistency contract under
// churn with immediate reclamation recycling nodes mid-scan.
func TestSkipAscendConcurrent(t *testing.T) {
	const stable = 50 // odd keys 1..99 stay put
	s := New(link.Config{Mode: link.ModeRR, RRKind: core.KindV, Threads: 4, Window: core.Window{W: 4}})
	s.Register(0)
	for k := uint64(1); k <= 99; k += 2 {
		s.Insert(0, k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 1; w <= 3; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s.Register(tid)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64((i*2+tid*4)%100) + 100 // churn keys 100..199
				s.Insert(tid, k)
				s.Remove(tid, k)
			}
		}(w)
	}
	var violations atomic.Int64
	for round := 0; round < 30; round++ {
		var got []uint64
		if err := s.Ascend(0, 0, func(key uint64) bool {
			got = append(got, key)
			return true
		}); err != nil {
			t.Fatalf("round %d: Ascend: %v", round, err)
		}
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

// TestSkipAscendDeferredModes runs the cursor protocol over the deferred
// schemes: sequential correctness including early stop, then the
// weak-consistency contract under concurrent churn (covering the
// dead-checked resume path where RR uses revocation).
func TestSkipAscendDeferredModes(t *testing.T) {
	for _, mode := range []link.Mode{link.ModeTMHE, link.ModeTMVBR} {
		s := New(link.Config{Mode: mode, Threads: 4, Window: core.Window{W: 4}, ScanThreshold: 8})
		t.Run(s.Name(), func(t *testing.T) {
			if !s.CanAscend() {
				t.Fatal("CanAscend = false")
			}
			s.Register(0)
			for k := uint64(1); k <= 99; k += 2 {
				s.Insert(0, k)
			}
			var got []uint64
			if err := s.Ascend(0, 0, func(key uint64) bool {
				got = append(got, key)
				return true
			}); err != nil {
				t.Fatalf("Ascend: %v", err)
			}
			if len(got) != 50 || got[0] != 1 || got[49] != 99 {
				t.Fatalf("sequential ascend: %v", got)
			}
			// Early stop must not leak the start handle into the next op.
			count := 0
			if err := s.Ascend(0, 0, func(uint64) bool { count++; return count < 5 }); err != nil {
				t.Fatalf("early-stop Ascend: %v", err)
			}
			if !s.Lookup(0, 1) {
				t.Fatal("lookup broken after early-stopped ascend")
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 1; w <= 3; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					s.Register(tid)
					for i := 0; ; i++ {
						select {
						case <-stop:
							s.Finish(tid)
							return
						default:
						}
						k := uint64((i*2+tid*4)%100) + 100
						s.Insert(tid, k)
						s.Remove(tid, k)
					}
				}(w)
			}
			for round := 0; round < 30; round++ {
				got = got[:0]
				if err := s.Ascend(0, 0, func(key uint64) bool {
					got = append(got, key)
					return true
				}); err != nil {
					t.Fatalf("round %d: Ascend: %v", round, err)
				}
				seen := 0
				lastKey := uint64(0)
				for _, k := range got {
					if k <= lastKey {
						t.Fatalf("round %d: ordering violation at %d", round, k)
					}
					lastKey = k
					if k <= 99 && k%2 == 1 {
						seen++
					}
				}
				if seen != 50 {
					t.Fatalf("round %d: saw %d of 50 stable keys", round, seen)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
