// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the program's public entry points, checks every reply
// against an exact oracle, and prints each metric with its unit and sample
// count, then one JSON result line. See README.md for the workloads, the
// metrics and what each per-layer metric should move.
//
//	perfbench --workload kv-point --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the separate
// traced measurement and prints the per-layer metrics instead. The
// command exits 1 when any reply, enumeration, LEN or memory-books check
// fails, and 2 on bad arguments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// procs pins GOMAXPROCS: two connections or workers, two processors, on
// every host that has them, so the program measured is the same.
var procs = 2

// endToEnd and perLayer list every metric each mode must print, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"max_rate_ops_s", "1/s"},
	{"ops_s", "1/s"},
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
	{"peak_nodes_per_key", "nodes/key"},
	{"heap_peak_mb", "MB"},
}

var perLayerUnits = []struct{ name, unit string }{
	{"client.late_p99_us", "us"},
	{"client.backlog_max", "ops"},
	{"net.read_calls_per_op", "calls/op"},
	{"net.write_calls_per_op", "calls/op"},
	{"net.read_us_per_op", "us/op"},
	{"net.write_us_per_op", "us/op"},
	{"net.bytes_per_op", "B/op"},
	{"serve.ops_per_burst", "ops"},
	{"serve.self_us_per_op", "us/op"},
	{"serve.pool.leases_per_op", "leases/op"},
	{"serve.pool.wait_frac", "fraction"},
	{"serve.pool.wait_us_per_op", "us/op"},
	{"serve.pool.rejections", "count"},
	{"etree.call_us_mean", "us"},
	{"etree.call_us_p99", "us"},
	{"etree.busy_frac", "fraction"},
	{"list.call_us_mean", "us"},
	{"list.call_us_p99", "us"},
	{"list.apply_us_mean", "us"},
	{"list.busy_frac", "fraction"},
	{"stm.tx_per_op", "tx/op"},
	{"stm.commit_ratio", "fraction"},
	{"stm.aborts_per_op", "aborts/op"},
	{"stm.abort_read_per_op", "aborts/op"},
	{"stm.abort_validation_per_op", "aborts/op"},
	{"stm.abort_wlock_per_op", "aborts/op"},
	{"stm.abort_capacity_per_op", "aborts/op"},
	{"stm.abort_explicit_per_op", "aborts/op"},
	{"stm.serial_frac", "fraction"},
	{"stm.extensions_per_op", "ext/op"},
	{"stm.commit_slow_frac", "fraction"},
	{"reclaim.retired_per_op", "nodes/op"},
	{"reclaim.scans_per_op", "scans/op"},
	{"reclaim.peak_deferred", "nodes"},
	{"reclaim.delay_ops_mean", "ops"},
	{"reclaim.leftover", "nodes"},
	{"arena.live_nodes_peak", "nodes"},
	{"arena.deferred_nodes_peak", "nodes"},
	{"runtime.allocs_per_op", "allocs/op"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_us_max", "us"},
	{"trace.overhead_frac", "fraction"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, its checks and its op counts.
type report struct {
	metrics           map[string]metricValue
	attempted, failed int64
	probs             []string
}

func newReport() *report { return &report{metrics: map[string]metricValue{}} }

// metric records a value; n > 0 is the sample count behind it.
func (r *report) metric(name string, v float64, unit string, n int) {
	r.metrics[name] = metricValue{v, unit}
	if n > 0 {
		fmt.Printf("metric %-20s %14.4f %-9s n=%d\n", name, v, unit, n)
	} else {
		fmt.Printf("metric %-20s %14.4f %s\n", name, v, unit)
	}
}

// window is the length of one closed-loop window. Rates and percentiles
// are taken per window and reported as the median window, so that a
// stretch in which the host stalls (see README.md) moves a few windows,
// not the result; the pooled figures are printed alongside.
const window = 250 * time.Millisecond

// windows collects one phase's per-window results.
type windows struct {
	rates                                []float64
	readP50, readP99, writeP50, writeP99 []float64
	read, write                          hist // every sample, pooled
}

func (w *windows) addRate(r float64) { w.rates = append(w.rates, r) }

func (w *windows) addLatencies(read, write *hist) {
	w.readP50 = append(w.readP50, read.quantile(0.5))
	w.readP99 = append(w.readP99, read.quantile(0.99))
	w.writeP50 = append(w.writeP50, write.quantile(0.5))
	w.writeP99 = append(w.writeP99, write.quantile(0.99))
	w.read.merge(read)
	w.write.merge(write)
}

// latencies records p50 per op type, in µs, as the median over windows,
// and prints p99 the same way. The p99s are not end-to-end metrics in
// BENCHMARK.json: their run-to-run spread on the development host went
// past the largest bound the benchmark may set (see README.md). A p99
// needs ten samples beyond it, so a window with fewer than 1000 samples
// of a type fails the run.
func (r *report) latencies(w *windows, where string, length time.Duration) {
	fmt.Printf("# latencies: %s, median of %d windows of %v\n", where, len(w.readP50), length)
	for _, t := range []struct {
		name     string
		p50, p99 []float64
		pooled   *hist
	}{{"read", w.readP50, w.readP99, &w.read}, {"write", w.writeP50, w.writeP99, &w.write}} {
		n := int(t.pooled.count())
		if len(t.p50) == 0 || n/len(t.p50) < 1000 {
			r.fail("%s latency: %d samples in %d windows, a p99 needs 1000 per window", t.name, n, len(t.p50))
			continue
		}
		r.metric(t.name+"_p50_us", median(t.p50)/1e3, "us", n)
		fmt.Printf("metric %-20s %14.4f %-9s n=%d (printed only)\n", t.name+"_p99_us", median(t.p99)/1e3, "us", n)
		fmt.Printf("#   %s pooled over all windows: p50 %.1f us, p99 %.1f us, p99.9 %.1f us\n",
			t.name, t.pooled.quantile(0.5)/1e3, t.pooled.quantile(0.99)/1e3, t.pooled.quantile(0.999)/1e3)
	}
}

func (r *report) layers(m map[string]float64) {
	for _, l := range perLayerUnits {
		r.metric(l.name, m[l.name], l.unit, 0)
	}
}

func (r *report) note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// fail records a failed check; it counts as one failed op.
func (r *report) fail(format string, args ...any) {
	r.probs = append(r.probs, fmt.Sprintf(format, args...))
	r.failed++
}

func (r *report) problems(p []string) {
	for _, s := range p {
		r.fail("%s", s)
	}
}

// absorb adds an instance's op counts and its end-of-run check failures.
func (r *report) absorb(inst interface{ counts() (int64, int64) }, probs []string) {
	a, f := inst.counts()
	r.attempted += a
	r.failed += f
	r.problems(probs)
}

func main() {
	name := flag.String("workload", "", "kv-point, kv-multi or lib-list")
	seed := flag.Int64("seed", 1, "seed for every generated input (each round draws its own from it)")
	seconds := flag.Float64("seconds", 15, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload kv-point|kv-multi|lib-list --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if n := runtime.NumCPU(); n < procs {
		procs = n
	}
	runtime.GOMAXPROCS(procs)
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d num_cpu=%d go=%s\n",
		*name, *seed, *seconds, *trace, procs, runtime.NumCPU(), runtime.Version())

	var w *workload
	switch *name {
	case "kv-point", "kv-multi":
		w = kvWorkload(kvSpecs[*name], *seed)
	case "lib-list":
		w = libWorkload(*seed)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep := newReport()
	budget := time.Duration(*seconds * float64(time.Second))
	if *trace == 1 {
		traceMeasure(rep, w, budget)
	} else {
		measure(rep, w, budget)
	}

	want := endToEnd
	if *trace == 1 {
		want = perLayerUnits
	}
	out := map[string]metricValue{}
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		if !ok && len(rep.probs) == 0 {
			rep.fail("metric %s was not measured", m.name)
		}
		out[m.name] = v
	}
	if rep.attempted == 0 {
		rep.attempted = 1
	}
	fmt.Printf("fail_frac %.6g (%d failed of %d attempted)\n",
		float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	for _, p := range rep.probs {
		fmt.Println("FAIL", p)
	}
	ok := rep.failed == 0 && len(rep.probs) == 0
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{ok, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}
