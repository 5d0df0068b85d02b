package main

import (
	"math"
	"testing"
)

func TestKneeSearchConverges(t *testing.T) {
	for _, knee := range []float64{35000, 52000, 99000, 109999} {
		var tried []float64
		got := kneeSearch(30000, 110000, 8, func(r float64) bool {
			tried = append(tried, r)
			return r <= knee
		})
		if len(tried) != 8 {
			t.Fatalf("knee %v: %d trials, want 8", knee, len(tried))
		}
		if got > knee {
			t.Fatalf("knee %v: reported failing rate %v", knee, got)
		}
		// Seven bisections of an 80k bracket leave 80k/2^7 = 625 ops/s.
		if knee-got > 625 {
			t.Fatalf("knee %v: reported %v, more than one bracket width below", knee, got)
		}
	}
}

func TestKneeSearchBelowBracket(t *testing.T) {
	got := kneeSearch(30000, 110000, 8, func(r float64) bool { return r <= 10000 })
	// 30000 and 15000 fail, 7500 passes; five bisections of [7500, 15000].
	if got > 10000 || got < 10000-7500.0/32 {
		t.Fatalf("got %v for a knee of 10000", got)
	}
}

func TestKneeSearchNothingPasses(t *testing.T) {
	calls := 0
	got := kneeSearch(30000, 110000, 5, func(float64) bool { calls++; return false })
	if got != 0 || calls != 5 {
		t.Fatalf("got %v after %d calls, want 0 after 5", got, calls)
	}
	if math.IsNaN(got) {
		t.Fatal("NaN")
	}
}

func TestPooledKnee(t *testing.T) {
	var ts []trial
	add := func(rate float64, pass bool) { ts = append(ts, trial{rate, pass}) }
	for _, r := range []float64{50, 60, 70, 80, 85, 88, 90} {
		add(r, true)
	}
	for _, r := range []float64{92, 95, 100, 120} {
		add(r, false)
	}
	// Clean data: the crossing is interpolated between the last pass and
	// the first failure.
	if got := pooledKnee(ts); got != 91 {
		t.Fatalf("clean data: knee %v, want 91", got)
	}
	// One unlucky failure far below the knee and one lucky pass above it
	// pool into their neighbours; the knee stays between 88 and 95.
	add(60, false)
	add(110, true)
	if got := pooledKnee(ts); got < 88 || got > 95 {
		t.Fatalf("noisy data: knee %v, want within [88, 95]", got)
	}
	if got := pooledKnee([]trial{{100, false}, {50, false}}); got != 50 {
		t.Fatalf("nothing passed: knee %v, want the lowest rate tried, 50", got)
	}
	if got := pooledKnee([]trial{{100, true}, {50, true}}); got != 100 {
		t.Fatalf("everything passed: knee %v, want the highest rate tried, 100", got)
	}
	if got := pooledKnee(nil); got != 0 {
		t.Fatalf("no trials: knee %v, want 0", got)
	}
}
