package main

import (
	"fmt"
	"runtime"
	"time"
)

// instance is one built, prefilled workload instance: a served structure
// with its connections, or the library set with its workers.
type instance interface {
	// closed runs the closed loop for d and returns completed ops/s.
	closed(d time.Duration) (rate float64, ops int64, err error)
	// open offers rate ops/s for d in an open loop.
	open(rate float64, d time.Duration, res *stepResult) error
	// callLatencies merges the last closed window's per-call latencies
	// (lib-list only: the wire workloads take latencies in the open loop).
	callLatencies(read, write *hist)
	mem() (live, deferred uint64)
	keys() int64
	// finish drains the instance and returns every failed end-of-run check.
	finish() []string
	counts() (attempted, failed int64)
	abort()
	info() string

	// Traced instances only.
	snap() layerSnap
	structure() string
	callLat() *hist
	resetCallLat()
	pacing() (late *hist, backlogMax int64)
}

// workload says how a run measures one workload.
type workload struct {
	// setup generates round r's inputs, then builds and prefills an
	// instance and returns it with the time that took: generating the
	// inputs is not part of set-up.
	setup func(round int, traced bool) (instance, time.Duration, error)
	// probe is the fixed offered rate at which latencies are taken in an
	// open loop, in windows of probeWindow; probe 0 takes them per call in
	// the closed loop's windows.
	probe       float64
	probeWindow time.Duration
	// extraSetups is how many set-ups a run times for setup_s beyond the
	// one per round (a multiple of rounds); a set-up of a few milliseconds
	// needs more for a steady median.
	extraSetups int
	// closedShare and kneeShare are the percentages of each round spent
	// in the closed loop and in the knee search; a probe takes the rest.
	closedShare, kneeShare int
}

// rounds is how many fresh instances a run measures, each on its own
// inputs drawn from the run's seed (see roundSeed). Throughput moves by
// ±15% between instances of the same structure, so every metric is the
// median over rounds or over all the rounds' windows.
const rounds = 8

// roundSeed derives round r's input seed from the run's seed: the same
// seed gives the same inputs, and a run averages over eight prefills
// and op streams rather than depending on one.
func roundSeed(seed int64, r int) int64 { return seed*1_000_003 + int64(r) }

// kneeTrials is the number of open-loop trials per round: the first at
// half the round's closed-loop rate, which a healthy build sustains, then
// bisection of [0.5, 2]×ops_s down to 1.2% of ops_s. The open loop can
// beat the closed loop, whose pipeline drains between windows (kv-multi
// does). All rounds' trials are pooled into one estimate (pooledKnee).
const kneeTrials = 8

// measure is the untraced run: rounds fresh instances, each timed in
// set-up and measured by measureRound, then every end-to-end metric.
func measure(rep *report, w *workload, budget time.Duration) {
	per := budget / rounds
	var setups, knees, perKey, heap []float64
	var trials, disturbed []trial
	var closed, probe windows
	for r := 0; r < rounds; r++ {
		// Extra set-ups are spread over the rounds, so that setup_s
		// samples the whole run rather than one moment of it.
		for i := 0; i < w.extraSetups/rounds; i++ {
			inst, d, err := w.setup(rounds*(i+1)+r, false)
			if err != nil {
				rep.fail("setup: %v", err)
				return
			}
			setups = append(setups, d.Seconds())
			rep.absorb(inst, inst.finish())
		}
		inst, d, err := w.setup(r, false)
		if err != nil {
			rep.fail("setup: %v", err)
			return
		}
		setups = append(setups, d.Seconds())
		smp := startSampler(inst.mem, inst.keys)
		before := len(closed.rates)
		var rt []trial
		knee, err := measureRound(rep, w, inst, per, &closed, &probe, &rt)
		roundWindows := len(closed.rates) - before
		if len(rt) > 0 && !rt[0].pass {
			disturbed = append(disturbed, rt...)
		} else {
			trials = append(trials, rt...)
		}
		smp.finish()
		if err != nil {
			rep.absorb(inst, nil)
			rep.fail("round %d: %v", r, err)
			inst.abort()
			return
		}
		knees = append(knees, knee)
		perKey = append(perKey, smp.peakPerKey)
		rep.note("round %d: setup %.4fs, closed loop %.0f ops/s, knee %.0f ops/s, peak %.4f nodes/key",
			r, d.Seconds(), median(closed.rates[len(closed.rates)-roundWindows:]), knee, smp.peakPerKey)
		heap = append(heap, liveHeapMB())
		rep.absorb(inst, inst.finish())
	}

	rep.metric("setup_s", median(setups), "s", len(setups))
	rep.metric("ops_s", median(closed.rates), "1/s", len(closed.rates))
	// A round whose first trial, at half its closed-loop rate, fails saw
	// the host stall rather than the knee; its trials are left out of the
	// fit unless that happened in half the rounds or more.
	if len(disturbed) >= len(trials) {
		trials = append(trials, disturbed...)
	} else if len(disturbed) > 0 {
		rep.note("%d rounds failed their first trial and are left out of the knee fit", len(disturbed)/kneeTrials)
	}
	rep.metric("max_rate_ops_s", pooledKnee(trials), "1/s", len(trials))
	rep.note("median of the rounds' own knees: %.0f ops/s", median(knees))
	if w.probe > 0 {
		rep.latencies(&probe, fmt.Sprintf("open loop at %.0f ops/s", w.probe), w.probeWindow)
	} else {
		rep.latencies(&closed, "closed loop, per call", window)
	}
	rep.metric("peak_nodes_per_key", median(perKey), "nodes/key", len(perKey))
	rep.metric("heap_peak_mb", median(heap), "MB", len(heap))
}

// measureRound runs one instance's closed-loop windows, its knee search
// and, for the wire workloads, its probe-rate windows. It returns the
// round's knee.
func measureRound(rep *report, w *workload, inst instance, per time.Duration, closed, probe *windows, trials *[]trial) (float64, error) {
	var rates []float64
	for end := nanotime() + int64(per)*int64(w.closedShare)/100; nanotime() < end; {
		r, _, err := inst.closed(window)
		if err != nil {
			return 0, err
		}
		rates = append(rates, r)
		closed.addRate(r)
		if w.probe == 0 {
			var read, write hist
			inst.callLatencies(&read, &write)
			closed.addLatencies(&read, &write)
		}
	}
	opsS := median(rates)

	trialDur := per * time.Duration(w.kneeShare) / 100 / kneeTrials
	var step stepResult
	var stepErr error
	knee := kneeSearch(0.5*opsS, 2*opsS, kneeTrials, func(rate float64) bool {
		if stepErr != nil {
			return false
		}
		stepErr = inst.open(rate, trialDur, &step)
		pass := stepErr == nil && step.passes()
		*trials = append(*trials, trial{rate, pass})
		rep.note("trial rate=%.0f p99_us=%.1f backlog_end=%d failed=%d pass=%v",
			rate, step.all.quantile(0.99)/1e3, step.backlogEnd, step.failed, pass)
		return pass
	})
	if stepErr != nil {
		return 0, stepErr
	}

	if w.probe > 0 {
		for end := nanotime() + int64(per)*int64(100-w.closedShare-w.kneeShare)/100; nanotime() < end; {
			if err := inst.open(w.probe, w.probeWindow, &step); err != nil {
				return 0, err
			}
			probe.addLatencies(&step.read, &step.write)
		}
	}
	return knee, nil
}

// traceMeasure is the separate traced run. Each round builds an untraced
// and a traced instance and runs the same closed-loop windows on both;
// the ratio of their median rates is the tracing overhead. The last
// traced instance then runs the probe (or, for lib-list, one more closed
// window) with every counter read around it.
func traceMeasure(rep *report, w *workload, budget time.Duration) {
	per := budget / rounds / 3
	var plain, traced []float64
	var last instance
	for r := 0; r < rounds; r++ {
		var infos [2]string
		for i, tr := range []bool{false, true} {
			inst, _, err := w.setup(r, tr)
			if err != nil {
				rep.fail("setup: %v", err)
				return
			}
			infos[i] = inst.info()
			for end := nanotime() + int64(per); nanotime() < end; {
				rate, _, err := inst.closed(window)
				if err != nil {
					rep.absorb(inst, nil)
					rep.fail("closed loop: %v", err)
					inst.abort()
					return
				}
				if tr {
					traced = append(traced, rate)
				} else {
					plain = append(plain, rate)
				}
			}
			if tr && r == rounds-1 {
				last = inst
				continue
			}
			rep.absorb(inst, inst.finish())
		}
		rep.problems(infoDiffers(infos[0], infos[1]))
	}

	runtime.GC()
	last.resetCallLat()
	smp := startSampler(last.mem, last.keys)
	a := last.snap()
	var ops int64
	var err error
	if w.probe > 0 {
		var step stepResult
		err = last.open(w.probe, per, &step)
		ops = step.ops
	} else {
		_, ops, err = last.closed(per)
	}
	b := last.snap()
	smp.finish()
	if err != nil {
		rep.absorb(last, nil)
		rep.fail("traced run: %v", err)
		last.abort()
		return
	}
	late, backlog := last.pacing()
	rep.layers(perLayer(a, b, layerInputs{
		structure: last.structure(), ops: ops, callLat: last.callLat(),
		late: late, backlogMax: backlog, smp: smp,
		overheadFrac: 1 - median(traced)/median(plain),
	}))
	rep.note("closed loop, median of %d windows: traced %.0f ops/s, untraced %.0f ops/s",
		len(traced), median(traced), median(plain))
	rep.absorb(last, last.finish())
}
