package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// generators lists every workload's input generator.
var generators = map[string]func(uint64) any{
	"mux-storm":   func(s uint64) any { return muxStormInputs(s) },
	"hot-target":  func(s uint64) any { return hotTargetInputs(s) },
	"plain-json":  func(s uint64) any { return plainJSONInputs(s) },
	"delta-sweep": func(s uint64) any { return deltaSweepInputs(s) },
}

func TestSeedsDetermineInputs(t *testing.T) {
	if got, want := workloadNames(), slices.Sorted(maps.Keys(generators)); !slices.Equal(got, want) {
		t.Fatalf("workloads %v, generators %v", got, want)
	}
	for name, gen := range generators {
		for _, seed := range []uint64{1, 2, 12345} {
			if a, b := gen(seed), gen(seed); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: seed %d generated different inputs on two calls", name, seed)
			}
			if a, b := gen(seed), gen(seed+1); reflect.DeepEqual(a, b) {
				t.Errorf("%s: seeds %d and %d generated identical inputs", name, seed, seed+1)
			}
		}
	}
}

// shape summarizes what a seed must not change: sorted counts of sessions
// per target, of sessions per (target, connection) and of workers per
// connection. It is nil when a worker's sessions span targets or
// connections.
func shape(in daemonInputs) []int {
	perTarget, perConnTarget, workersPerConn := map[string]int{}, map[string]int{}, map[int]int{}
	for _, s := range in.Sessions {
		perTarget[s.Target]++
		perConnTarget[fmt.Sprint(s.Target, "/", s.Conn)]++
	}
	for _, visit := range in.Workers {
		first := in.Sessions[visit[0]]
		workersPerConn[first.Conn]++
		for _, i := range visit {
			if in.Sessions[i].Target != first.Target || in.Sessions[i].Conn != first.Conn {
				return nil
			}
		}
	}
	out := slices.Sorted(maps.Values(perTarget))
	out = append(append(out, -1), slices.Sorted(maps.Values(perConnTarget))...)
	return append(append(out, -1), slices.Sorted(maps.Values(workersPerConn))...)
}

func TestSeedKeepsShape(t *testing.T) {
	for _, wl := range []daemonWorkload{muxStorm, hotTarget, plainJSON} {
		want := shape(wl.inputs(1))
		if want == nil {
			t.Fatalf("%s: a worker spans targets or connections", wl.name)
		}
		for seed := uint64(2); seed < 20; seed++ {
			in := wl.inputs(seed)
			if got := shape(in); !slices.Equal(got, want) {
				t.Errorf("%s seed %d: shape %v, seed 1 has %v", wl.name, seed, got, want)
			}
			names := map[string]bool{}
			for _, s := range in.Sessions {
				names[s.Name] = true
			}
			if len(names) != len(in.Sessions) {
				t.Errorf("%s seed %d: duplicate session names", wl.name, seed)
			}
		}
	}
	for seed := uint64(1); seed < 20; seed++ {
		in := deltaSweepInputs(seed)
		dts := slices.Sorted(slices.Values(in.DTs))
		for k, dt := range dts {
			if dt != float64(k-24) {
				t.Fatalf("seed %d: ∆ points %v are not -24..24 s", seed, in.DTs)
			}
		}
		if got := slices.Sorted(slices.Values(in.Policies)); !slices.Equal(got, slices.Sorted(slices.Values(sweepPolicies))) {
			t.Errorf("seed %d: policies %v", seed, in.Policies)
		}
	}
}

// manifest is the part of BENCHMARK.json the benchmark's tables mirror.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func TestMetricTablesMatchManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	// hot-target is the one workload BENCHMARK.json leaves out (README.md,
	// "Run-to-run noise and the bounds").
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	want := slices.DeleteFunc(workloadNames(), func(n string) bool { return n == "hot-target" })
	if slices.Sort(names); !slices.Equal(names, want) {
		t.Errorf("manifest workloads %v, want %v", names, want)
	}
	var e2e []metricSpec
	for _, e := range m.EndToEnd {
		e2e = append(e2e, metricSpec{e.Name, e.Unit, e.Better})
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("manifest end_to_end %v, benchmark %v", e2e, endToEnd)
	}
	if !slices.Equal(m.PerLayer, perLayer) {
		t.Errorf("manifest per_layer %v, benchmark %v", m.PerLayer, perLayer)
	}
}

// layerOwners lists, per workload, metric-name prefixes that must be
// measured (non-zero) there and are 0 on every other workload.
var layerOwners = map[string][]string{
	"mux-storm":   {"wirebin.", "server.batch_frames_mean"},
	"hot-target":  {"wirebin.", "server.batch_frames_mean", "server.deferred_frac", "trace.bytes", "trace.read", "replay."},
	"plain-json":  {"wire.", "trace.bytes", "trace.read", "replay."},
	"delta-sweep": {"platform.", "delta.", "runtime.allocs_per_point"},
}

// alwaysZero are per-layer metrics that are 0 on correct code.
var alwaysZero = []string{"trace.dropped"}

func owned(workload, metric string) bool {
	for _, p := range layerOwners[workload] {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

func ownedElsewhere(workload, metric string) bool {
	for w := range layerOwners {
		if w != workload && owned(w, metric) {
			return true
		}
	}
	return false
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that its output checks pass and that every metric prints with
// its unit: end-to-end metrics non-zero, each layer's metrics non-zero
// exactly on the workloads that run that layer.
func TestShortRuns(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				dir := t.TempDir()
				o := options{seed: defaultSeed, window: 400 * time.Millisecond, trace: traced, setups: 2, out: dir}
				r, err := workloads[name](o)
				if err != nil {
					t.Fatal(err)
				}
				s := summarize(r, traced)
				if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", s.Correct, s.Attempted, s.Failed, r.problems)
				}
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				if len(s.Metrics) != len(specs) {
					t.Errorf("%d metrics printed, %d specified", len(s.Metrics), len(specs))
				}
				for _, m := range specs {
					v, ok := s.Metrics[m.Name]
					switch {
					case !ok || v.Unit != m.Unit:
						t.Errorf("%s: printed %+v, want unit %q", m.Name, v, m.Unit)
					case !traced && v.Value <= 0:
						t.Errorf("%s = %v, want > 0", m.Name, v.Value)
					case traced && slices.Contains(alwaysZero, m.Name) && v.Value != 0:
						t.Errorf("%s = %v, want 0", m.Name, v.Value)
					case traced && owned(name, m.Name) && v.Value == 0:
						t.Errorf("%s = 0 on %s, which runs that layer", m.Name, name)
					case traced && !owned(name, m.Name) && ownedElsewhere(name, m.Name) && v.Value != 0:
						t.Errorf("%s = %v on %s, which does not run that layer", m.Name, v.Value, name)
					}
				}
				line, err := json.Marshal(s)
				if err != nil || !strings.HasPrefix(string(line), `{"correct":true,"attempted":`) {
					t.Errorf("result line %s (%v)", line, err)
				}
				spans := filepath.Join(dir, "spans-"+name+".tsv.gz")
				if _, err := os.Stat(spans); traced != (err == nil) {
					t.Errorf("traced=%v but span file stat: %v", traced, err)
				}
			})
		}
	}
}
