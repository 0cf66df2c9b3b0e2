package platform

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ior"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// testSpec is a small but non-trivial scenario: striping across 4 servers,
// two 32-proc apps, per-round granularity.
func testSpec(trueNet bool) Spec {
	w := ior.Workload{Pattern: ior.Contiguous, BlockSize: 8 << 20, BlocksPerProc: 1, ReqBytes: 2 << 20}
	return Spec{
		FS:            pfs.Config{Servers: 4, StripeBytes: 1 << 20, ServerBW: 64 << 20},
		TrueNetwork:   trueNet,
		ProcNIC:       4 << 20,
		CommBWPerProc: 4 << 20,
		CoordLatency:  1e-4,
		Apps: []AppSpec{
			{Name: "A", Procs: 32, Nodes: 8, W: w, Gran: ior.PerRound},
			{Name: "B", Procs: 32, Nodes: 8, W: w, Gran: ior.PerRound},
		},
	}
}

func fcfs(*core.PerfModel) core.Policy { return core.FCFSPolicy{} }

// snapshot captures everything observable about one run.
type snapshot struct {
	makespan  float64
	io        [2]float64
	phases    [2]int
	decisions []core.DecisionRecord
}

func runSnapshot(p *Platform, starts []float64) snapshot {
	s := snapshot{makespan: p.Run(starts, nil)}
	for i, r := range p.Runners {
		s.io[i] = r.Stats.TotalIOTime()
		s.phases[i] = len(r.Stats.Phases)
	}
	if p.Layer != nil {
		s.decisions = p.Layer.Log()
	}
	return s
}

func sameSnapshot(a, b snapshot) bool {
	if a.makespan != b.makespan || a.io != b.io || a.phases != b.phases ||
		len(a.decisions) != len(b.decisions) {
		return false
	}
	for i := range a.decisions {
		da, db := a.decisions[i], b.decisions[i]
		if da.Time != db.Time || da.Policy != db.Policy || da.Reason != db.Reason ||
			len(da.Allowed) != len(db.Allowed) {
			return false
		}
		for j := range da.Allowed {
			if da.Allowed[j] != db.Allowed[j] {
				return false
			}
		}
	}
	return true
}

// TestReusedPlatformMatchesFresh is the platform-reuse contract: a reused
// (reset) platform must reproduce a fresh platform's results bit-for-bit,
// under both contention models and both with and without a coordination
// layer — including the decision log, which is rebuilt from scratch.
func TestReusedPlatformMatchesFresh(t *testing.T) {
	for _, trueNet := range []bool{false, true} {
		for _, coordinated := range []bool{false, true} {
			spec := testSpec(trueNet)
			var policy func(*core.PerfModel) core.Policy
			if coordinated {
				policy = fcfs
			}
			starts := []float64{0, 0.7}

			fresh := runSnapshot(New(sim.NewEngine(), spec, policy), starts)
			reused := New(sim.NewEngine(), spec, policy)
			for i := 0; i < 3; i++ {
				if got := runSnapshot(reused, starts); !sameSnapshot(fresh, got) {
					t.Fatalf("trueNet=%v coordinated=%v: reused run %d diverged: %+v vs %+v",
						trueNet, coordinated, i, fresh, got)
				}
			}
		}
	}
}

// TestDecisionLogSurvivesReuse: the decision log handed out by Layer.Log
// must stay intact when the platform is reset and re-run (fresh backing per
// run, no aliasing).
func TestDecisionLogSurvivesReuse(t *testing.T) {
	p := New(sim.NewEngine(), testSpec(false), fcfs)
	starts := []float64{0, 0.7}
	p.Run(starts, nil)
	log1 := p.Layer.Log()
	want := make([]core.DecisionRecord, len(log1))
	copy(want, log1)

	p.Run([]float64{0, 2.5}, nil) // different offsets: different decisions
	for i := range want {
		if want[i].Time != log1[i].Time || want[i].Reason != log1[i].Reason {
			t.Fatalf("decision log aliased by the next run at %d", i)
		}
	}
}

// TestPoolReusesAndDistinguishes: equal specs share one platform; different
// specs (here: the solo calibration next to the full scenario, and a
// coordinated next to an uncoordinated entry) get their own.
func TestPoolReusesAndDistinguishes(t *testing.T) {
	pool := NewPool()
	spec := testSpec(false)

	p1 := pool.Acquire(spec, nil)
	p2 := pool.Acquire(spec, nil)
	if p1 != p2 {
		t.Fatal("equal specs should reuse one platform")
	}

	solo := spec
	solo.Apps = spec.Apps[:1]
	p3 := pool.Acquire(solo, nil)
	if p3 == p1 {
		t.Fatal("solo spec must not reuse the two-app platform")
	}
	if p4 := pool.Acquire(solo, nil); p4 != p3 {
		t.Fatal("solo spec should reuse the solo platform")
	}

	p5 := pool.Acquire(spec, fcfs)
	if p5 == p1 {
		t.Fatal("coordinated spec must not reuse the uncoordinated platform")
	}
	if p5.Layer == nil || p1.Layer != nil {
		t.Fatal("coordination layers wired wrong")
	}

	// Interleaving entries on the shared engine must not corrupt results.
	a := runSnapshot(p1, []float64{0, 1})
	runSnapshot(p3, []float64{0})
	runSnapshot(p5, []float64{0, 1})
	if b := runSnapshot(p1, []float64{0, 1}); !sameSnapshot(a, b) {
		t.Fatalf("interleaved pool entries diverged: %+v vs %+v", a, b)
	}
}

// TestPoolOwnsSpec: mutating the caller's Apps slice after Acquire must not
// corrupt the pool's cache key.
func TestPoolOwnsSpec(t *testing.T) {
	pool := NewPool()
	spec := testSpec(false)
	apps := spec.Apps
	p1 := pool.Acquire(spec, nil)
	apps[0].Procs = 7 // caller scribbles over its slice
	spec.Apps = apps
	if p2 := pool.Acquire(spec, nil); p2 == p1 {
		t.Fatal("mutated spec must rebuild, not reuse")
	}
}

// TestSteadyStateRunAllocFree locks in the tentpole property: the 2nd+ run
// of a scenario on a reused platform allocates nothing, under both the
// default (fluid) and the explicit-fabric contention model. This is the
// per-point cost of a ∆-sweep after its first point.
//
// A coordinated FCFS platform, with its arbiter set up the way
// delta.Sweeper workers set theirs up (indexed policy path, no decision
// log), stays within maxCoordAllocs per run: each Wait that parks still
// allocates its sim.Resumer and the Resume method value its grant
// message carries.
func TestSteadyStateRunAllocFree(t *testing.T) {
	const maxCoordAllocs = 8
	for _, trueNet := range []bool{false, true} {
		for _, coordinated := range []bool{false, true} {
			var policy func(*core.PerfModel) core.Policy
			if coordinated {
				policy = fcfs
			}
			pl := NewPool().Acquire(testSpec(trueNet), policy)
			if pl.Layer != nil {
				pl.Layer.Arbiter().SetIndexed(true)
				pl.Layer.Arbiter().SetLogBound(0)
			}
			starts := []float64{0, 1}
			pl.Run(starts, nil) // first run pays the pools
			pl.Run(starts, nil)
			allocs := testing.AllocsPerRun(50, func() { pl.Run(starts, nil) })
			switch {
			case !coordinated && allocs != 0:
				t.Fatalf("trueNet=%v: steady-state run allocates %.1f objects, want 0", trueNet, allocs)
			case coordinated && allocs > maxCoordAllocs:
				t.Fatalf("trueNet=%v: coordinated steady-state run allocates %.1f objects, want <= %d",
					trueNet, allocs, maxCoordAllocs)
			}
		}
	}
}

// TestSpecFabricRejected: explicit fabrics are built by the platform, never
// passed in.
func TestSpecFabricRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Spec with preset Fabric")
		}
	}()
	spec := testSpec(true)
	spec.FS.Fabric = New(sim.NewEngine(), testSpec(true), nil).Fab
	_ = New(sim.NewEngine(), spec, nil)
}
