package delta

import (
	"testing"

	"repro/internal/ior"
	"repro/internal/pfs"
)

// sweepScenario is a small TrueNetwork two-app scenario, the shape the
// macro benchmarks sweep.
func sweepScenario() Scenario {
	w := ior.Workload{Pattern: ior.Contiguous, BlockSize: 8 << 20, BlocksPerProc: 1, ReqBytes: 2 << 20}
	return Scenario{
		Name:        "sweeper-test",
		FS:          pfs.Config{Servers: 4, StripeBytes: 1 << 20, ServerBW: 500e6},
		ProcNIC:     50e6,
		TrueNetwork: true,
		Apps: []AppSpec{
			{Name: "A", Procs: 64, Nodes: 16, W: w, Gran: ior.PerRound},
			{Name: "B", Procs: 64, Nodes: 16, W: w, Gran: ior.PerRound},
		},
	}
}

func seriesEqual(t *testing.T, a, b Series) {
	t.Helper()
	if a.Policy != b.Policy || a.SoloA != b.SoloA || a.SoloB != b.SoloB {
		t.Fatalf("series headers differ: %+v vs %+v", a.Policy, b.Policy)
	}
	for _, pair := range [][2][]float64{
		{a.DT, b.DT}, {a.TimeA, b.TimeA}, {a.TimeB, b.TimeB},
		{a.FactorA, b.FactorA}, {a.FactorB, b.FactorB}, {a.CPUPerCore, b.CPUPerCore},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("series lengths differ: %d vs %d", len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("series diverge at %d: %v vs %v", i, pair[0][i], pair[1][i])
			}
		}
	}
}

// sweepPolicies are the policies the Sweeper tests cover. All but the
// first run the coordination layer, which Sweeper workers drive through
// the indexed, unlogged arbitration path.
var sweepPolicies = []struct {
	name    string
	factory PolicyFactory
}{
	{"uncoordinated", Uncoordinated},
	{"fcfs", FCFS},
	{"interrupt", Interrupt},
	{"interfere", Interfere},
	{"delay", Delay(0.5)},
}

// TestSweeperReuseBitIdentical pins the Sweeper contract under every
// policy: repeated sweeps on one executor — and sweeps of different point
// sets interleaved — are bit-identical to fresh Scenario.Sweep runs, and
// every point is bit-identical to a fresh Scenario.Run, which still
// arbitrates through the map-based, fully logged path (so the workers'
// indexed, unlogged arbitration changes no decision).
func TestSweeperReuseBitIdentical(t *testing.T) {
	sc := sweepScenario()
	// The scenario's solo phase lasts ~0.27 s: these offsets cover full,
	// partial and no overlap in both orders.
	dts := []float64{-0.4, -0.2, -0.1, -0.05, 0, 0.05, 0.1, 0.2, 0.4}
	for _, pc := range sweepPolicies {
		fresh := sc.Sweep(pc.factory, dts)
		for k, dt := range dts {
			starts := []float64{0, dt}
			if dt < 0 {
				starts = []float64{-dt, 0}
			}
			res := sc.Run(pc.factory, starts)
			if pc.factory != nil && len(res.Decisions) == 0 {
				t.Fatalf("%s dt=%v: Scenario.Run logged no decisions", pc.name, dt)
			}
			if res.IOTime[0] != fresh.TimeA[k] || res.IOTime[1] != fresh.TimeB[k] {
				t.Fatalf("%s dt=%v: sweep (%v, %v), Scenario.Run (%v, %v)",
					pc.name, dt, fresh.TimeA[k], fresh.TimeB[k], res.IOTime[0], res.IOTime[1])
			}
		}

		sw := NewSweeper()
		first := sw.Sweep(sc, pc.factory, dts)
		seriesEqual(t, fresh, first)

		// A different point set on the same executor, then the original again.
		sw.Sweep(sc, pc.factory, []float64{-0.15, 0.15})
		var again Series
		sw.SweepInto(&again, sc, pc.factory, dts)
		seriesEqual(t, fresh, again)
		sw.Close()
	}
}

// denseDTs is a paper-figure resolution sweep: 49 points across the
// scenario's overlap window (±0.3 s around a ~0.27 s solo phase).
func denseDTs() []float64 {
	dts := make([]float64, 49)
	for i := range dts {
		dts[i] = float64(i-24) / 80
	}
	return dts
}

// TestSweeperSteadyStateAllocs guards the persistent executor's steady
// state: with worker goroutines kept alive and fed through channels and a
// reused Series, the marginal uncoordinated sweep allocates NOTHING — no
// platform construction, no solo recalibration, no goroutine spawn, no
// output growth — and a coordinated 49-point sweep stays within
// maxCoordAllocsPerPoint per point (what remains is the coordination
// layer's per-Wait resumer). AllocsPerRun counts mallocs process-wide, so
// the workers' sweep points are measured too.
func TestSweeperSteadyStateAllocs(t *testing.T) {
	const maxCoordAllocsPerPoint = 8
	sc := sweepScenario()
	steady := func(factory PolicyFactory, dts []float64) float64 {
		sw := NewSweeper()
		defer sw.Close()
		var s Series
		sw.SweepInto(&s, sc, factory, dts) // build platforms, size backing
		sw.SweepInto(&s, sc, factory, dts) // settle any lazy growth
		return testing.AllocsPerRun(5, func() {
			sw.SweepInto(&s, sc, factory, dts)
		})
	}
	if allocs := steady(Uncoordinated, []float64{-4, -1, 0, 1, 4}); allocs != 0 {
		t.Fatalf("uncoordinated: steady-state SweepInto allocates %.1f objects per sweep, want 0", allocs)
	}
	dts := denseDTs()
	for _, pc := range sweepPolicies[1:4] { // fcfs, interrupt, interfere
		allocs := steady(pc.factory, dts)
		perPoint := allocs / float64(len(dts))
		t.Logf("%s: %.0f allocs per %d-point sweep (%.2f per point)", pc.name, allocs, len(dts), perPoint)
		if perPoint > maxCoordAllocsPerPoint {
			t.Fatalf("%s: steady-state SweepInto allocates %.2f objects per point, want <= %d",
				pc.name, perPoint, maxCoordAllocsPerPoint)
		}
	}
}

// TestSweeperCloseStopsWorkers: after Close the workers are gone and reuse
// panics loudly instead of hanging on a closed feed channel.
func TestSweeperCloseStopsWorkers(t *testing.T) {
	sc := sweepScenario()
	sw := NewSweeper()
	sw.Sweep(sc, Uncoordinated, []float64{0})
	sw.Close()
	sw.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("SweepInto after Close did not panic")
		}
	}()
	var s Series
	sw.SweepInto(&s, sc, Uncoordinated, []float64{0})
}
