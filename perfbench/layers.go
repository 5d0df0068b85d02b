package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"hohtx/internal/reclaim"
	"hohtx/internal/serve"
	"hohtx/internal/stm"
)

// sampler polls the memory books while a workload runs.
type sampler struct {
	mem  func() (live, deferred uint64)
	keys func() int64

	stop chan struct{}
	wg   sync.WaitGroup

	peakPerKey, peakLive, peakDeferred float64
}

// sampleEvery is the polling period: fine enough to catch a reclamation
// backlog that builds over a few hundred ops, cheap enough to be noise.
const sampleEvery = 2 * time.Millisecond

func startSampler(mem func() (uint64, uint64), keys func() int64) *sampler {
	s := &sampler{mem: mem, keys: keys, stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				s.sample()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	live, deferred := s.mem()
	if k := s.keys(); k > 0 {
		s.peakPerKey = math.Max(s.peakPerKey, float64(live)/float64(k))
	}
	s.peakLive = math.Max(s.peakLive, float64(live))
	s.peakDeferred = math.Max(s.peakDeferred, float64(deferred))
}

// finish stops the sampler and waits for it; its peaks are then final.
func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

// liveHeapMB is the live Go heap, read after forced collections (two, so
// that objects a finalizer kept for one more cycle are gone). The arena
// never returns pages, so its high-water mark is still live at the end
// of a round; garbage, whose amount depends on when the collector last
// ran, is left out.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// rtSnap is the Go runtime's view: allocations, GC cycles and GC pauses.
type rtSnap struct {
	allocs, cycles uint64
	pauses         *metrics.Float64Histogram
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var out rtSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.cycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out.pauses = s[2].Value.Float64Histogram()
	}
	return out
}

// maxPauseUs is the upper bound of the highest GC-pause bucket that
// gained a sample between two snapshots.
func maxPauseUs(a, b rtSnap) float64 {
	if a.pauses == nil || b.pauses == nil || len(a.pauses.Counts) != len(b.pauses.Counts) {
		return 0
	}
	for i := len(b.pauses.Counts) - 1; i >= 0; i-- {
		if b.pauses.Counts[i] > a.pauses.Counts[i] {
			hi := b.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.pauses.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// layerSnap is every counter the traced run reads, at one instant.
type layerSnap struct {
	at                              int64
	net                             netSnap
	calls, callNs, applies, applyNs int64
	tm                              stm.Stats
	rc                              reclaim.Stats
	pool                            serve.PoolStats
	rt                              rtSnap
}

// layerInputs is what a workload hands perLayer besides the two snapshots.
type layerInputs struct {
	structure    string // "etree" or "list": which structure metrics to fill
	ops          int64  // ops completed between the snapshots
	callLat      *hist  // structure call latencies between the snapshots
	late         *hist  // open-loop sender lateness (nil: closed loop)
	backlogMax   int64
	smp          *sampler
	overheadFrac float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes every per-layer metric. Metrics of layers a workload
// does not cross (the wire on lib-list, the other structure family) are 0.
func perLayer(a, b layerSnap, in layerInputs) map[string]float64 {
	ops := float64(in.ops)
	wall := float64(b.at - a.at)
	m := map[string]float64{}

	m["client.late_p99_us"] = 0
	if in.late != nil {
		m["client.late_p99_us"] = in.late.quantile(0.99) / 1e3
	}
	m["client.backlog_max"] = float64(in.backlogMax)

	dn := func(x, y int64) float64 { return float64(y - x) }
	m["net.read_calls_per_op"] = ratio(dn(a.net.readCalls, b.net.readCalls), ops)
	m["net.write_calls_per_op"] = ratio(dn(a.net.writeCalls, b.net.writeCalls), ops)
	m["net.read_us_per_op"] = ratio(dn(a.net.readSysNs, b.net.readSysNs)/1e3, ops)
	m["net.write_us_per_op"] = ratio(dn(a.net.writeNs, b.net.writeNs)/1e3, ops)
	m["net.bytes_per_op"] = ratio(dn(a.net.readBytes, b.net.readBytes)+dn(a.net.writeBytes, b.net.writeBytes), ops)

	callNs := dn(a.callNs, b.callNs)
	m["serve.ops_per_burst"] = ratio(ops, dn(a.net.writeCalls, b.net.writeCalls))
	m["serve.self_us_per_op"] = 0
	if b.net.serveNs > a.net.serveNs {
		m["serve.self_us_per_op"] = ratio((dn(a.net.serveNs, b.net.serveNs)-callNs)/1e3, ops)
	}
	leases := float64(b.pool.Leases - a.pool.Leases)
	m["serve.pool.leases_per_op"] = ratio(leases, ops)
	m["serve.pool.wait_frac"] = ratio(float64(b.pool.Waits-a.pool.Waits), leases)
	m["serve.pool.wait_us_per_op"] = ratio(float64(b.pool.WaitNs-a.pool.WaitNs)/1e3, ops)
	m["serve.pool.rejections"] = float64(b.pool.Rejections - a.pool.Rejections)

	calls := dn(a.calls, b.calls)
	for _, fam := range []string{"etree", "list"} {
		mean, p99, busy := 0.0, 0.0, 0.0
		if fam == in.structure {
			mean = ratio(callNs/1e3, calls)
			p99 = in.callLat.quantile(0.99) / 1e3
			busy = ratio(callNs, wall*float64(procs))
		}
		m[fam+".call_us_mean"] = mean
		m[fam+".call_us_p99"] = p99
		m[fam+".busy_frac"] = busy
	}
	m["list.apply_us_mean"] = 0
	if in.structure == "list" {
		m["list.apply_us_mean"] = ratio(dn(a.applyNs, b.applyNs)/1e3, dn(a.applies, b.applies))
	}

	commits := float64(b.tm.Commits - a.tm.Commits)
	cause := func(c stm.AbortCause) float64 { return float64(b.tm.Aborts[c] - a.tm.Aborts[c]) }
	var aborts float64
	for c := range b.tm.Aborts {
		aborts += cause(stm.AbortCause(c))
	}
	m["stm.tx_per_op"] = ratio(commits, ops)
	m["stm.commit_ratio"] = ratio(commits, commits+aborts)
	m["stm.aborts_per_op"] = ratio(aborts, ops)
	m["stm.abort_read_per_op"] = ratio(cause(stm.CauseReadConflict), ops)
	m["stm.abort_validation_per_op"] = ratio(cause(stm.CauseValidation), ops)
	m["stm.abort_wlock_per_op"] = ratio(cause(stm.CauseWriteLock), ops)
	m["stm.abort_capacity_per_op"] = ratio(cause(stm.CauseCapacity), ops)
	m["stm.abort_explicit_per_op"] = ratio(cause(stm.CauseExplicit), ops)
	m["stm.serial_frac"] = ratio(float64(b.tm.SerialCommits-a.tm.SerialCommits), commits)
	m["stm.extensions_per_op"] = ratio(float64(b.tm.Extensions-a.tm.Extensions), ops)
	m["stm.commit_slow_frac"] = ratio(float64(b.tm.CommitSlowPath-a.tm.CommitSlowPath), commits)

	m["reclaim.retired_per_op"] = ratio(float64(b.rc.Retired-a.rc.Retired), ops)
	m["reclaim.scans_per_op"] = ratio(float64(b.rc.Scans-a.rc.Scans), ops)
	m["reclaim.peak_deferred"] = float64(b.rc.PeakDeferred)
	m["reclaim.delay_ops_mean"] = ratio(float64(b.rc.DelayOpsSum-a.rc.DelayOpsSum), float64(b.rc.Freed-a.rc.Freed))
	m["reclaim.leftover"] = float64(b.rc.Leftover)

	m["arena.live_nodes_peak"] = in.smp.peakLive
	m["arena.deferred_nodes_peak"] = in.smp.peakDeferred

	m["runtime.allocs_per_op"] = ratio(float64(b.rt.allocs-a.rt.allocs), ops)
	m["runtime.gc_cycles"] = float64(b.rt.cycles - a.rt.cycles)
	m["runtime.gc_pause_us_max"] = maxPauseUs(a.rt, b.rt)

	m["trace.overhead_frac"] = in.overheadFrac
	return m
}
