package main

import (
	"math/bits"
	"sync/atomic"
)

// subBits sets the histogram's resolution: every power-of-two octave is
// split into 2^subBits linear buckets, so a bucket is at most 1/128 of its
// lower bound wide and a reported quantile (the bucket midpoint) is within
// 0.4% of the true sample. Values below 2^subBits are exact.
const subBits = 7

// maxValue clamps recorded values (nanoseconds: about 18 minutes), which
// bounds the bucket array. Failed operations are recorded at maxValue so
// that they count as missing any latency limit.
const maxValue = 1<<40 - 1

const numBuckets = (40 - subBits + 1) << subBits

// hist is a log-linear latency histogram. Record is safe for concurrent
// use and never allocates; reads must follow the recorders' last write.
type hist struct {
	counts [numBuckets]atomic.Uint64
	n      atomic.Uint64
}

func bucketOf(v uint64) int {
	if v > maxValue {
		v = maxValue
	}
	if v < 1<<subBits {
		return int(v)
	}
	s := bits.Len64(v) - subBits - 1
	return (s+1)<<subBits + int(v>>s) - 1<<subBits
}

// bucketRange returns the inclusive lower bound and the width of bucket i.
func bucketRange(i int) (low, width uint64) {
	s := i>>subBits - 1
	if s < 0 {
		return uint64(i), 1
	}
	m := uint64(i - s<<subBits)
	return m << s, 1 << s
}

func (h *hist) record(v uint64) {
	h.counts[bucketOf(v)].Add(1)
	h.n.Add(1)
}

func (h *hist) count() uint64 { return h.n.Load() }

func (h *hist) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.n.Store(0)
}

func (h *hist) merge(o *hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
}

// quantile returns the q-quantile (0 < q ≤ 1) as the midpoint of the
// bucket holding the sample of rank ceil(q·n); 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	if float64(rank) < q*float64(n) || rank == 0 {
		rank++
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			low, w := bucketRange(i)
			return float64(low) + float64(w-1)/2
		}
	}
	return maxValue
}
