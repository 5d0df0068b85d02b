package main

import "sort"

// kneeSearch finds the highest offered rate in (0, hi] that passes, by
// bisection over [lo, hi] with the given number of trials. lo is the
// first guess at a passing rate; when it fails, the search halves it
// until a rate passes (or the trials run out, in which case it returns 0
// and the caller must report the run as failed). pass must be monotone
// in the rate up to noise; each call runs one timed open-loop step.
func kneeSearch(lo, hi float64, trials int, pass func(rate float64) bool) float64 {
	best := 0.0
	for trials > 0 && best == 0 {
		trials--
		if pass(lo) {
			best = lo
			break
		}
		hi, lo = lo, lo/2
	}
	if best == 0 {
		return 0
	}
	lo = best
	for ; trials > 0; trials-- {
		mid := (lo + hi) / 2
		if pass(mid) {
			best, lo = mid, mid
		} else {
			hi = mid
		}
	}
	return best
}

// trial is one open-loop step: the offered rate and whether it was
// sustained.
type trial struct {
	rate float64
	pass bool
}

// pooledKnee estimates the knee from every trial of a run. It fits a
// pass probability that cannot rise with the rate (isotonic regression by
// pool-adjacent-violators) and returns the rate at which the fit crosses
// one half, interpolated between the highest trial of the last block at
// or above one half and the lowest trial of the next block. One unlucky
// trial, which can send a single bisection into the wrong half, only
// dents the fit. When every block passes, the highest rate tried is
// returned; when none does, the lowest (0 for no trials).
func pooledKnee(trials []trial) float64 {
	if len(trials) == 0 {
		return 0
	}
	ts := append([]trial(nil), trials...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].rate < ts[j].rate })
	type block struct {
		sum, n      float64
		first, last int // indices in ts of the block's lowest and highest rate
	}
	var blocks []block
	for i, t := range ts {
		b := block{n: 1, first: i, last: i}
		if t.pass {
			b.sum = 1
		}
		blocks = append(blocks, b)
		for len(blocks) > 1 {
			p, q := blocks[len(blocks)-2], blocks[len(blocks)-1]
			if p.sum/p.n >= q.sum/q.n {
				break
			}
			blocks = append(blocks[:len(blocks)-2], block{p.sum + q.sum, p.n + q.n, p.first, q.last})
		}
	}
	for i, b := range blocks {
		f := b.sum / b.n
		if f >= 0.5 {
			continue
		}
		if i == 0 {
			return ts[0].rate
		}
		p := blocks[i-1]
		fp := p.sum / p.n
		lo, hi := ts[p.last].rate, ts[b.first].rate
		return lo + (fp-0.5)/(fp-f)*(hi-lo)
	}
	return ts[len(ts)-1].rate
}
