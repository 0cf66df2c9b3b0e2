package core

import (
	"fmt"
	"testing"
)

// TestIndexedMatchesMapDecisions pins the equivalence of the two policy
// paths: for every policy offering the indexed fast path, both paths must
// authorize exactly the same set of applications across a range of states.
func TestIndexedMatchesMapDecisions(t *testing.T) {
	model := &PerfModel{FSBandwidth: 1e9, ProcNIC: 1e7}
	policies := []Policy{
		InterferePolicy{},
		FCFSPolicy{},
		InterruptPolicy{},
		DelayPolicy{Overlap: 0.5, Model: model},
	}
	mkViews := func(n int, actives int) []AppView {
		vs := make([]AppView, n)
		for i := range vs {
			st := Waiting
			if i < actives {
				st = Active
			}
			vs[i] = AppView{
				Name: fmt.Sprintf("app-%02d", i), Cores: 16 * (i + 1), State: st,
				Arrival: float64(i), BytesTotal: 1e8 * float64(i+1), BytesDone: 1e7 * float64(i),
			}
		}
		return vs
	}
	for _, p := range policies {
		ip, ok := p.(IndexedArbitrator)
		if !ok {
			t.Fatalf("%s: no indexed path", p.Name())
		}
		for n := 1; n <= 5; n++ {
			for actives := 0; actives <= 1; actives++ {
				vs := mkViews(n, actives)
				dec := p.Arbitrate(100, vs)
				allowed := make([]bool, n)
				_, recheck := ip.ArbitrateIndexed(100, vs, allowed)
				for i, v := range vs {
					if allowed[i] != dec.Allowed[v.Name] {
						t.Fatalf("%s n=%d actives=%d: %s indexed=%v map=%v",
							p.Name(), n, actives, v.Name, allowed[i], dec.Allowed[v.Name])
					}
				}
				if (recheck > 0) != (dec.RecheckAfter > 0) {
					t.Fatalf("%s n=%d: recheck indexed=%v map=%v", p.Name(), n, recheck, dec.RecheckAfter)
				}
			}
		}
	}
}

// TestArbiterBoundedLogRing exercises the ring: order is preserved across
// the wrap and LastRecord always points at the newest decision.
func TestArbiterBoundedLogRing(t *testing.T) {
	ar := NewArbiter(FCFSPolicy{})
	ar.SetLogBound(4)
	a, err := ar.Register("A", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a.Inform(float64(i))
		out := ar.Arbitrate(float64(i))
		if !out.Acted {
			t.Fatal("no arbitration")
		}
		a.End()

		log := ar.Log()
		want := i + 1
		if want > 4 {
			want = 4
		}
		if len(log) != want {
			t.Fatalf("after %d decisions: log len %d, want %d", i+1, len(log), want)
		}
		for j := 1; j < len(log); j++ {
			if log[j].Time <= log[j-1].Time {
				t.Fatalf("log out of order: %+v", log)
			}
		}
		if last := ar.LastRecord(); last == nil || last.Time != float64(i) {
			t.Fatalf("LastRecord = %+v, want time %d", last, i)
		}
	}
}

// TestArbiterUnregisterPreservesOrder checks registration order (and with
// it deterministic grant delivery) survives removals.
func TestArbiterUnregisterPreservesOrder(t *testing.T) {
	ar := NewArbiter(InterferePolicy{})
	var apps []*AppState
	for i := 0; i < 5; i++ {
		a, err := ar.Register(fmt.Sprintf("app-%d", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a)
	}
	ar.Unregister(apps[1])
	ar.Unregister(apps[3])
	ar.Unregister(apps[3]) // double unregister is a no-op
	got := ar.Apps()
	want := []string{"app-0", "app-2", "app-4"}
	if len(got) != len(want) {
		t.Fatalf("apps = %d, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name() != want[i] {
			t.Fatalf("apps[%d] = %s, want %s", i, a.Name(), want[i])
		}
	}
	// The freed name is reusable.
	if _, err := ar.Register("app-1", 1); err != nil {
		t.Fatal(err)
	}
	// All still-registered apps get granted and reported in order.
	now := 0.0
	for _, a := range ar.Apps() {
		a.Inform(now)
		now++
	}
	out := ar.Arbitrate(now)
	if len(out.Granted) != 4 {
		t.Fatalf("granted %d apps, want 4", len(out.Granted))
	}
	for i, a := range out.Granted {
		if want := ar.Apps()[i].Name(); a.Name() != want {
			t.Fatalf("grant order %d = %s, want %s", i, a.Name(), want)
		}
	}
}

// TestResetRestoresRegistrationCores: Prepare(KeyCores) overrides the view's
// core count for the phase; Reset must restore the registration value so a
// reused arbiter arbitrates exactly like a fresh one.
func TestResetRestoresRegistrationCores(t *testing.T) {
	ar := NewArbiter(FCFSPolicy{})
	a, err := ar.Register("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	info := Info{}
	info.SetInt(KeyCores, 64)
	a.Prepare(info)
	if a.Cores() != 64 {
		t.Fatalf("cores after Prepare = %d, want 64", a.Cores())
	}
	ar.Reset()
	if a.Cores() != 8 {
		t.Fatalf("cores after Reset = %d, want the registration value 8", a.Cores())
	}
	if a.State() != Idle || a.Authorized() || len(ar.Log()) != 0 {
		t.Fatal("Reset left protocol state or log behind")
	}
}

// TestPrepareReusesPoppedInfo: Prepare refills the map a Complete popped
// (or a Reset cleared) instead of cloning a fresh one — no stale keys
// survive the refill, the caller's map is never aliased, and the steady
// Prepare/Complete cycle allocates nothing.
func TestPrepareReusesPoppedInfo(t *testing.T) {
	ar := NewArbiter(FCFSPolicy{})
	a, err := ar.Register("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	first := Info{}
	first.SetFloat(KeyBytesTotal, 100)
	first.SetInt(KeyFiles, 3)
	a.Prepare(first)
	if err := a.Complete(); err != nil {
		t.Fatal(err)
	}
	second := Info{}
	second.SetFloat(KeyBytesTotal, 50)
	a.Prepare(second)
	if v := a.View(); v.BytesTotal != 50 || v.Files != 0 {
		t.Fatalf("refilled view = %+v, want bytes 50 and no stale files key", v)
	}
	second.SetInt(KeyFiles, 9) // the stack holds a copy
	if err := a.Complete(); err != nil {
		t.Fatal(err)
	}
	a.Prepare(second)
	if v := a.View(); v.Files != 9 {
		t.Fatalf("view after re-Prepare = %+v, want files 9", v)
	}
	ar.Reset()
	if v := a.View(); v.BytesTotal != 0 || v.Files != 0 {
		t.Fatalf("view after Reset = %+v, want empty", v)
	}

	allocs := testing.AllocsPerRun(100, func() {
		a.Prepare(first)
		if err := a.Complete(); err != nil {
			t.Fatal(err)
		}
		ar.Reset()
	})
	if allocs != 0 {
		t.Fatalf("Prepare/Complete/Reset cycle allocates %.1f objects, want 0", allocs)
	}
}
