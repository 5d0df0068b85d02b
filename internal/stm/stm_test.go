package stm

import (
	"sync"
	"testing"
)

func newTestRuntime() *Runtime {
	return NewRuntime(Profile{})
}

func TestWordBasics(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	w.Init(7)
	got := Run(rt, func(tx *Tx) uint64 { return w.Load(tx) })
	if got != 7 {
		t.Fatalf("Load = %d, want 7", got)
	}
	rt.Atomic(func(tx *Tx) { w.Store(tx, 42) })
	if w.Raw() != 42 {
		t.Fatalf("Raw = %d, want 42", w.Raw())
	}
}

func TestReadOwnWrites(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	rt.Atomic(func(tx *Tx) {
		w.Store(tx, 5)
		if got := w.Load(tx); got != 5 {
			t.Errorf("read-own-write = %d, want 5", got)
		}
		w.Store(tx, 6)
		if got := w.Load(tx); got != 6 {
			t.Errorf("after second store = %d, want 6", got)
		}
	})
	if w.Raw() != 6 {
		t.Fatalf("committed value = %d, want 6", w.Raw())
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	w.Init(1)
	tries := 0
	rt.Atomic(func(tx *Tx) {
		tries++
		w.Store(tx, 99)
		if tries == 1 {
			tx.Restart()
		}
	})
	if tries != 2 {
		t.Fatalf("tries = %d, want 2", tries)
	}
	if w.Raw() != 99 {
		t.Fatalf("final = %d, want 99", w.Raw())
	}
}

func TestPtrCell(t *testing.T) {
	rt := newTestRuntime()
	type payload struct{ s string }
	var p Ptr[payload]
	if got := Run(rt, func(tx *Tx) *payload { return p.Load(tx) }); got != nil {
		t.Fatalf("zero Ptr loads %v, want nil", got)
	}
	val := &payload{s: "hello"}
	rt.Atomic(func(tx *Tx) {
		p.Store(tx, val)
		if got := p.Load(tx); got != val {
			t.Errorf("read-own-write Ptr = %v, want %v", got, val)
		}
	})
	if p.Raw() != val {
		t.Fatal("Ptr commit lost")
	}
}

func TestOnCommitOnAbort(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	var committed, aborted int
	tries := 0
	rt.Atomic(func(tx *Tx) {
		tries++
		w.Store(tx, uint64(tries))
		tx.OnCommit(func() { committed++ })
		tx.OnAbort(func() { aborted++ })
		if tries < 3 {
			tx.Restart()
		}
	})
	if committed != 1 {
		t.Errorf("commit hooks ran %d times, want 1", committed)
	}
	if aborted != 2 {
		t.Errorf("abort hooks ran %d times, want 2", aborted)
	}
}

// TestCounterSerializability hammers a single transactional counter from
// many goroutines; any lost update means the commit protocol is broken.
func TestCounterSerializability(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rt.Atomic(func(tx *Tx) {
					w.Store(tx, w.Load(tx)+1)
				})
			}
		}()
	}
	wg.Wait()
	if got := w.Raw(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestPerTidTransactions grows the per-tid Tx table from many goroutines
// at once (tids first used out of order, concurrently) and checks that
// every tid keeps one Tx, that the counter stays serializable, and that a
// warm AtomicT allocates nothing.
func TestPerTidTransactions(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	const tids = 16
	const perTid = 500
	var wg sync.WaitGroup
	for tid := tids - 1; tid >= 0; tid-- {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perTid; i++ {
				rt.AtomicT(tid, func(tx *Tx) {
					w.Store(tx, w.Load(tx)+1)
				})
			}
		}(tid)
	}
	wg.Wait()
	if got := w.Raw(); got != tids*perTid {
		t.Fatalf("counter = %d, want %d", got, tids*perTid)
	}
	for tid := 0; tid < tids; tid++ {
		if rt.txFor(tid) != rt.txFor(tid) {
			t.Fatalf("tid %d has no stable Tx", tid)
		}
	}
	inc := func() { rt.AtomicT(3, func(tx *Tx) { w.Store(tx, w.Load(tx)+1) }) }
	if got := testing.AllocsPerRun(200, inc); got != 0 {
		t.Fatalf("warm AtomicT: %.2f allocs/op, want 0", got)
	}
}

// TestSnapshotConsistency maintains the invariant a+b == 100 under
// concurrent transfers and checks that read-only transactions never observe
// a torn state (opacity at the whole-transaction level).
func TestSnapshotConsistency(t *testing.T) {
	rt := newTestRuntime()
	var a, b Word
	a.Init(100)
	const iters = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				amt := uint64(i%3 + 1)
				rt.Atomic(func(tx *Tx) {
					av := a.Load(tx)
					if av >= amt {
						a.Store(tx, av-amt)
						b.Store(tx, b.Load(tx)+amt)
					} else {
						a.Store(tx, av+b.Load(tx))
						b.Store(tx, 0)
					}
				})
			}
		}(uint64(g))
	}

	var violations int
	var rwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sum := Run(rt, func(tx *Tx) uint64 {
					return a.Load(tx) + b.Load(tx)
				})
				if sum != 100 {
					violations++
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	if violations > 0 {
		t.Fatalf("observed %d torn snapshots (a+b != 100)", violations)
	}
	if got := a.Raw() + b.Raw(); got != 100 {
		t.Fatalf("final sum = %d, want 100", got)
	}
}

// TestWriteSkewPrevented checks full serializability (not just snapshot
// isolation): two transactions that each read both cells and write one must
// not both commit against the same snapshot.
func TestWriteSkewPrevented(t *testing.T) {
	rt := newTestRuntime()
	var x, y Word
	const iters = 3000
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rt.Atomic(func(tx *Tx) {
					// Invariant target: x+y <= 1 given both start 0 and
					// each tx sets its own cell only if the other is 0.
					xv, yv := x.Load(tx), y.Load(tx)
					if id == 0 {
						if yv == 0 {
							x.Store(tx, 1)
						} else {
							x.Store(tx, 0)
						}
					} else {
						if xv == 0 {
							y.Store(tx, 1)
						} else {
							y.Store(tx, 0)
						}
					}
					_ = xv
				})
				if x.Raw() == 1 && y.Raw() == 1 {
					// Racy observation: confirm transactionally.
					bad := Run(rt, func(tx *Tx) bool {
						return x.Load(tx) == 1 && y.Load(tx) == 1
					})
					if bad {
						t.Error("write skew: x == y == 1")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCapacityFallsBackToSerial(t *testing.T) {
	rt := NewRuntime(Profile{Capacity: 8, MaxAttempts: 4})
	words := make([]Word, 64)
	rt.Atomic(func(tx *Tx) {
		for i := range words {
			words[i].Store(tx, uint64(i))
		}
	})
	for i := range words {
		if words[i].Raw() != uint64(i) {
			t.Fatalf("words[%d] = %d", i, words[i].Raw())
		}
	}
	st := rt.Stats()
	if st.Aborts[CauseCapacity] == 0 {
		t.Error("expected at least one capacity abort")
	}
	if st.SerialCommits == 0 {
		t.Error("expected the transaction to commit serially")
	}
}

func TestSerialModeStillIsolated(t *testing.T) {
	// A serial transaction's writes must not be visible to concurrent
	// speculative readers until its commit point.
	rt := NewRuntime(Profile{Capacity: 4, MaxAttempts: 2})
	cells := make([]Word, 16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var torn int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			vals := Run(rt, func(tx *Tx) [2]uint64 {
				return [2]uint64{cells[0].Load(tx), cells[15].Load(tx)}
			})
			if vals[0] != vals[1] {
				torn++
				return
			}
		}
	}()
	for round := uint64(1); round <= 500; round++ {
		rt.Atomic(func(tx *Tx) {
			for i := range cells {
				cells[i].Store(tx, round)
			}
		})
	}
	close(stop)
	wg.Wait()
	if torn > 0 {
		t.Fatalf("reader observed %d torn serial commits", torn)
	}
}

func TestStatsAccounting(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	for i := 0; i < 10; i++ {
		rt.Atomic(func(tx *Tx) { w.Store(tx, uint64(i)) })
	}
	st := rt.Stats()
	if st.Commits != 10 {
		t.Fatalf("commits = %d, want 10", st.Commits)
	}
	rt.ResetStats()
	if rt.Stats().Commits != 0 {
		t.Fatal("ResetStats did not zero commits")
	}
}

func TestRun2(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	w.Init(3)
	a, b := Run2(rt, func(tx *Tx) (uint64, bool) {
		v := w.Load(tx)
		return v, v == 3
	})
	if a != 3 || !b {
		t.Fatalf("Run2 = (%d,%v), want (3,true)", a, b)
	}
}

func TestUserPanicPropagates(t *testing.T) {
	rt := newTestRuntime()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("user panic did not propagate")
		}
		// The runtime must remain usable after a propagated panic.
		var w Word
		rt.Atomic(func(tx *Tx) { w.Store(tx, 1) })
		if w.Raw() != 1 {
			t.Fatal("runtime unusable after user panic")
		}
	}()
	rt.Atomic(func(tx *Tx) { panic("boom") })
}

func TestAbortCauseStrings(t *testing.T) {
	for c := CauseNone; c < numCauses; c++ {
		if c.String() == "unknown" {
			t.Errorf("cause %d has no name", c)
		}
	}
	if AbortCause(200).String() != "unknown" {
		t.Error("out-of-range cause should be unknown")
	}
}
