package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketsAreContiguous(t *testing.T) {
	next := uint64(0)
	for i := 0; i < numBuckets; i++ {
		low, w := bucketRange(i)
		if low != next {
			t.Fatalf("bucket %d starts at %d, want %d", i, low, next)
		}
		if bucketOf(low) != i || bucketOf(low+w-1) != i {
			t.Fatalf("bucket %d [%d, %d] does not map back to itself", i, low, low+w-1)
		}
		if low >= 1<<subBits && float64(w)/float64(low) > 1.0/(1<<subBits) {
			t.Fatalf("bucket %d relative width %g above 1/%d", i, float64(w)/float64(low), 1<<subBits)
		}
		next = low + w
	}
	if next != maxValue+1 {
		t.Fatalf("buckets end at %d, want %d", next, uint64(maxValue+1))
	}
}

func TestQuantileWithinOnePercent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h hist
	var raw []float64
	for i := 0; i < 200000; i++ {
		// Log-normal around 20 µs with a heavy tail, like loopback RTTs.
		v := math.Exp(r.NormFloat64()*1.2) * 20000
		h.record(uint64(v))
		raw = append(raw, float64(uint64(v)))
	}
	sort.Float64s(raw)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := raw[int(math.Ceil(q*float64(len(raw))))-1]
		got := h.quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q%.3f = %.0f, exact %.0f: relative error %.4f > 1%%", q, got, want, rel)
		}
	}
	if h.count() != uint64(len(raw)) {
		t.Fatalf("count %d, want %d", h.count(), len(raw))
	}
}

func TestQuantileSmallCounts(t *testing.T) {
	var h hist
	if h.quantile(0.99) != 0 {
		t.Fatal("empty histogram should report 0")
	}
	for v := uint64(1); v <= 100; v++ {
		h.record(v)
	}
	if got := h.quantile(0.5); got != 50 {
		t.Fatalf("p50 of 1..100 = %v, want 50", got)
	}
	if got := h.quantile(0.99); got != 99 {
		t.Fatalf("p99 of 1..100 = %v, want 99", got)
	}
	if got := h.quantile(1); got != 100 {
		t.Fatalf("p100 of 1..100 = %v, want 100", got)
	}
	var m hist
	m.merge(&h)
	m.merge(&h)
	if m.count() != 200 || m.quantile(0.5) != 50 {
		t.Fatalf("merge: count %d p50 %v", m.count(), m.quantile(0.5))
	}
	h.record(1 << 50) // clamps instead of indexing past the array
	if got := h.quantile(1); got < maxValue/2 {
		t.Fatalf("clamped max = %v", got)
	}
}
