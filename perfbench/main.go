// Command perfbench is the repository's benchmark: one closed-loop workload
// per run, chosen by name and generated from a seed, with its outputs
// checked and its metrics printed.
//
//	perfbench --workload mux-storm --seed 1 --seconds 10 --trace 0
//
// The daemon workloads (mux-storm, hot-target, plain-json) boot an
// in-process calciomd on loopback and drive it through internal/client;
// delta-sweep drives the ∆-graph simulator through internal/delta. With
// --trace 0 the last line of standard output is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// measured by timing calls into each layer's public functions, and the
// spans recorded around them are written under --out. Lines before it are
// a human-readable report. README.md describes every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
)

// metricSpec is one metric the benchmark reports. The tables below mirror
// BENCHMARK.json at the repository root, which TestMetricTablesMatchManifest
// keeps in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is printed by every untraced run. An "item" is one grant cycle
// on the daemon workloads and one ∆ point on delta-sweep; "latency" is one
// grant cycle on the daemon workloads and one 49-point SweepInto call on
// delta-sweep.
var endToEnd = []metricSpec{
	{"items_per_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p90_us", "us", "lower"},
	{"cpu_us_per_item", "us", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is printed by every traced run. A layer the workload does not
// run reports 0.
var perLayer = []metricSpec{
	{"client.open_us", "us", "lower"},
	{"client.inform_p50_us", "us", "lower"},
	{"client.wait_p50_us", "us", "lower"},
	{"client.wait_p90_us", "us", "lower"},
	{"client.release_p50_us", "us", "lower"},
	{"client.end_p50_us", "us", "lower"},
	{"client.cycle_p99_us", "us", "lower"},
	{"wirebin.encode_ns", "ns", "lower"},
	{"wirebin.decode_ns", "ns", "lower"},
	{"wirebin.bytes_per_frame", "bytes", "lower"},
	{"wire.encode_ns", "ns", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"wire.bytes_per_frame", "bytes", "lower"},
	{"server.batch_frames_mean", "frames", "higher"},
	{"server.bytes_per_req", "bytes", "lower"},
	{"server.arbitrations_per_grant", "count", "lower"},
	{"server.deferred_frac", "ratio", "lower"},
	{"server.wait_p50_us", "us", "lower"},
	{"server.hold_p50_us", "us", "lower"},
	{"core.arbitrate_ns", "ns", "lower"},
	{"trace.bytes_per_event", "bytes", "lower"},
	{"trace.read_ns_per_event", "ns", "lower"},
	{"trace.dropped", "count", "lower"},
	{"replay.events_per_s", "1/s", "higher"},
	{"runtime.sched_p50_us", "us", "lower"},
	{"runtime.sched_p90_us", "us", "lower"},
	{"runtime.ctxsw_per_grant", "count", "lower"},
	{"runtime.allocs_per_grant", "count", "lower"},
	{"runtime.allocs_per_point", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"platform.acquire_ms", "ms", "lower"},
	{"platform.run_us_per_point", "us", "lower"},
	{"delta.parallel_eff", "ratio", "higher"},
	{"bench.traced_items_per_s", "1/s", "higher"},
	{"bench.tracing_overhead_frac", "ratio", "lower"},
}

// setupsPerRun is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupsPerRun = 9

// options are one run's settings.
type options struct {
	seed   uint64
	window time.Duration // the measured window
	trace  bool
	setups int    // set-ups per run; setup_s is their median
	out    string // directory for span files ("" writes none)
}

// result is what a workload run produced.
type result struct {
	attempted, failed int
	problems          []string // failed checks, for the report
	e2e               map[string]float64
	layer             map[string]float64
	report            []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check counts one output check as attempted, and as failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// add counts n attempted calls of which failed failed.
func (r *result) add(n, failed int) {
	r.attempted += n
	r.failed += failed
}

func (r *result) printf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"mux-storm":   func(o options) (*result, error) { return runDaemon(o, muxStorm) },
	"hot-target":  func(o options) (*result, error) { return runDaemon(o, hotTarget) },
	"plain-json":  func(o options) (*result, error) { return runDaemon(o, plainJSON) },
	"delta-sweep": runSweep,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize builds the final JSON line: every metric of the run's kind,
// by name and unit.
func summarize(r *result, traced bool) summary {
	specs, vals := endToEnd, r.e2e
	if traced {
		specs, vals = perLayer, r.layer
	}
	s := summary{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range specs {
		s.Metrics[m.Name] = metricValue{Value: finite(vals[m.Name]), Unit: m.Unit}
	}
	return s
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "input generator seed")
		seconds = flag.Float64("seconds", 10, "measured window, in seconds")
		traced  = flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for span files")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	opts := options{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *traced == 1,
		setups: setupsPerRun,
		out:    *out,
	}
	r, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, line := range r.report {
		fmt.Println(line)
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(summarize(r, opts.trace))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}
