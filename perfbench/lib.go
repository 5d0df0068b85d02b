package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hohtx"
	"hohtx/internal/sets"
)

// lib-list calls the public library directly: no wire, no serving layer.
const (
	libKeyRange = 512
	// Set-up takes about 2 ms, so the median needs more than the rounds'.
	libExtraSetups = 56
)

var libMix = mix{50, 25, 25}

// libWorker is one goroutine pinned to worker id `id`, owning the keys
// ≡ id (mod 2). Only it touches its fields until the phase ends.
type libWorker struct {
	id    int
	set   sets.Set
	ops   []uint32
	pos   int
	model *model
	keys  atomic.Int64 // keys it owns that are present, for the sampler

	all, read, write hist
	done, mismatches int64
}

func (w *libWorker) call() {
	op := w.ops[w.pos]
	if w.pos++; w.pos == len(w.ops) {
		w.pos = 0
	}
	kind, key := unpackOp(op)
	var got bool
	switch kind {
	case sets.OpInsert:
		got = w.set.Insert(w.id, key)
	case sets.OpRemove:
		got = w.set.Remove(w.id, key)
	default:
		got = w.set.Lookup(w.id, key)
	}
	if !w.model.apply(op, got) {
		w.mismatches++
	}
	w.keys.Store(int64(w.model.n))
	w.done++
}

func (w *libWorker) record(op uint32, lat int64) {
	w.all.record(uint64(lat))
	if op&3 == uint32(sets.OpLookup) {
		w.read.record(uint64(lat))
	} else {
		w.write.record(uint64(lat))
	}
}

func (w *libWorker) reset() {
	w.all.reset()
	w.read.reset()
	w.write.reset()
}

// closed calls back to back until the deadline, timing every call.
func (w *libWorker) closed(deadline int64) {
	for nanotime() < deadline {
		for i := 0; i < 64; i++ {
			op := w.ops[w.pos]
			t := nanotime()
			w.call()
			w.record(op, nanotime()-t)
		}
	}
}

// open runs n calls, call f due at t0 + (owners·f + id)·period; a call's
// latency runs from when it was due. The worker is its own server, so it
// waits out short gaps on the clock rather than in the kernel.
func (w *libWorker) open(p *pacer, t0 int64, period float64, n int) error {
	for f := 0; f < n; f++ {
		due := t0 + int64(float64(owners*f+w.id)*period)
		for now := nanotime(); now < due; now = nanotime() {
			if gap := time.Duration(due - now); gap > minPace {
				if err := p.sleep(gap); err != nil {
					return err
				}
			}
		}
		op := w.ops[w.pos]
		w.call()
		w.record(op, nanotime()-due)
	}
	return nil
}

type libInstance struct {
	inner   sets.Set
	traced  *tracedSet
	workers []*libWorker
	pacers  [owners]*pacer
	base    uint64
}

func libGenerate(seed int64) (prefill []uint64, streams [owners][]uint32) {
	prefill = prefillKeys(rand.New(rand.NewSource(seed)), libKeyRange)
	for id := range streams {
		streams[id] = genOps(rand.New(rand.NewSource(seed*owners+int64(id)+1)), id, libKeyRange, streamLen, libMix)
	}
	return
}

func newLib(prefill []uint64, streams [owners][]uint32, traced bool) (*libInstance, error) {
	l := &libInstance{inner: hohtx.NewListSet(hohtx.Config{Threads: owners})}
	for i := range l.pacers {
		p, err := newPacer()
		if err != nil {
			l.abort()
			return nil, err
		}
		l.pacers[i] = p
	}
	l.base = l.inner.(sets.MemoryReporter).LiveNodes()
	set := l.inner
	if traced {
		l.traced = newTracedSet(set)
		set = l.traced
	}
	for id := 0; id < owners; id++ {
		set.Register(id)
		l.workers = append(l.workers, &libWorker{id: id, set: set, ops: streams[id], model: newModel(libKeyRange)})
	}
	for _, k := range prefill {
		w := l.workers[k%owners]
		op := packOp(sets.OpInsert, k)
		if !w.model.apply(op, set.Insert(w.id, k)) {
			w.mismatches++
		}
		w.keys.Store(int64(w.model.n))
		w.done++
	}
	return l, nil
}

func (l *libInstance) parallel(fn func(w *libWorker)) {
	var wg sync.WaitGroup
	for _, w := range l.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

func (l *libInstance) closed(d time.Duration) (float64, int64, error) {
	var before int64
	for _, w := range l.workers {
		w.reset()
		before += w.done
	}
	start := nanotime()
	l.parallel(func(w *libWorker) { w.closed(start + int64(d)) })
	var ops int64
	for _, w := range l.workers {
		ops += w.done
	}
	ops -= before
	return float64(ops) / (float64(nanotime()-start) / 1e9), ops, nil
}

func (l *libInstance) open(rate float64, d time.Duration, res *stepResult) error {
	n := int(rate * d.Seconds() / owners)
	if n < 1 {
		n = 1
	}
	period := 1e9 / rate
	t0 := nanotime() + int64(time.Millisecond)
	var bad int64
	for _, w := range l.workers {
		w.reset()
		bad += w.mismatches
	}
	errs := make([]error, owners)
	l.parallel(func(w *libWorker) { errs[w.id] = w.open(l.pacers[w.id], t0, period, n) })
	*res = stepResult{rate: rate, ops: int64(n * owners)}
	for _, w := range l.workers {
		res.failed += w.mismatches
		res.all.merge(&w.all)
	}
	res.failed -= bad
	return errors.Join(errs...)
}

func (l *libInstance) keys() int64 {
	var n int64
	for _, w := range l.workers {
		n += w.keys.Load()
	}
	return n
}

func (l *libInstance) mem() (uint64, uint64) {
	m := l.inner.(sets.MemoryReporter)
	return m.LiveNodes(), m.DeferredNodes()
}

// finish flushes every worker id and checks the enumerated keys against
// the oracle and the memory books against the key count.
func (l *libInstance) finish() []string {
	l.abort()
	for _, w := range l.workers {
		l.inner.Finish(w.id)
	}
	models := make([]*model, owners)
	want := 0
	for i, w := range l.workers {
		models[i] = w.model
		want += w.model.n
	}
	probs := checkKeys(l.inner.Snapshot(), models)
	live, deferred := l.mem()
	if exp := l.base + uint64(want); live != exp {
		probs = append(probs, fmt.Sprintf("memory books: %d live nodes, want %d sentinels + %d keys = %d",
			live, l.base, want, exp))
	}
	if deferred != 0 {
		probs = append(probs, fmt.Sprintf("memory books: %d nodes still deferred after the flush", deferred))
	}
	return probs
}

func (l *libInstance) counts() (attempted, failed int64) {
	for _, w := range l.workers {
		attempted += w.done
		failed += w.mismatches
	}
	return
}

func (l *libInstance) snap() layerSnap {
	s := layerSnap{at: nanotime(), rt: readRuntime(), tm: tmStats(l.inner), rc: reclaimStats(l.inner)}
	if t := l.traced; t != nil {
		s.calls, s.callNs = t.calls.Load(), t.callNs.Load()
		s.applies, s.applyNs = t.applies.Load(), t.applyNs.Load()
	}
	return s
}

func (l *libInstance) callLatencies(read, write *hist) {
	for _, w := range l.workers {
		read.merge(&w.read)
		write.merge(&w.write)
	}
}

func (l *libInstance) pacing() (*hist, int64) { return nil, 0 }

func (l *libInstance) structure() string { return "list" }

func (l *libInstance) callLat() *hist {
	if l.traced == nil {
		return &hist{}
	}
	return &l.traced.callLat
}

func (l *libInstance) resetCallLat() {
	if l.traced != nil {
		l.traced.callLat.reset()
	}
}

func (l *libInstance) info() string { return "" }

// abort releases the open-loop pacers; the library has nothing to shut down.
func (l *libInstance) abort() {
	for _, p := range l.pacers {
		p.close()
	}
}

func libWorkload(seed int64) *workload {
	return &workload{
		setup: func(round int, traced bool) (instance, time.Duration, error) {
			prefill, streams := libGenerate(roundSeed(seed, round))
			t := time.Now()
			l, err := newLib(prefill, streams, traced)
			if err != nil {
				return nil, 0, err
			}
			return l, time.Since(t), nil
		},
		extraSetups: libExtraSetups, closedShare: 40, kneeShare: 60,
	}
}
