package server

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/wire"
)

// driveSerialized pushes a fixed multi-app workload through the arbitration
// core directly (no network), the same shape as
// TestDeterministicGivenSerializedOrder.
func driveSerialized(srv *Server, apps, rounds int) {
	ss := make([]*session, apps)
	for i := range ss {
		ss[i] = &session{}
		srv.handle(ss[i], wire.Request{Seq: 1, Type: wire.TypeRegister, App: fmt.Sprintf("app-%d", i), Cores: 16 * (i + 1)})
		srv.handle(ss[i], wire.Request{Seq: 2, Type: wire.TypePrepare, Info: map[string]string{core.KeyBytesTotal: "1000"}})
	}
	for round := 0; round < rounds; round++ {
		for _, s := range ss {
			srv.handle(s, wire.Request{Seq: 3, Type: wire.TypeInform})
			srv.handle(s, wire.Request{Seq: 4, Type: wire.TypeWait})
		}
		for _, s := range ss {
			srv.handle(s, wire.Request{Seq: 5, Type: wire.TypeRelease, BytesDone: float64(100 * (round + 1))})
			srv.handle(s, wire.Request{Seq: 6, Type: wire.TypeEnd})
		}
	}
}

// TestRecordedTraceVerifiesExactly is the determinism acceptance test in
// miniature: a recorded fcfs run, replayed under fcfs, must reproduce the
// live authorization-flip sequence event for event and serve the same
// number of grants.
func TestRecordedTraceVerifiesExactly(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Source: trace.SourceDaemon, Policy: "fcfs"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock(), Trace: w})
	if err != nil {
		t.Fatal(err)
	}
	driveSerialized(srv, 3, 5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Dropped() != 0 {
		t.Fatalf("%d events dropped", w.Dropped())
	}

	tr, err := trace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	v, err := replay.Verify(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Match {
		t.Fatalf("replay diverged from recording: %s", v.Mismatch)
	}
	if len(v.Recorded) == 0 {
		t.Fatal("no flips recorded")
	}
	// The per-app wait decomposition must agree with the live snapshot too:
	// same classification logic, same instants.
	st := srv.snapshot(srv.clock())
	if v.GrantsServed != st.GrantsServed {
		t.Fatalf("replayed grants = %d, live = %d", v.GrantsServed, st.GrantsServed)
	}
	if v.Arbitrations != st.Arbitrations {
		t.Fatalf("replayed arbitrations = %d, live = %d", v.Arbitrations, st.Arbitrations)
	}
	if len(st.Apps) != len(v.Apps) {
		t.Fatalf("apps: live %d, replay %d", len(st.Apps), len(v.Apps))
	}
	for i, la := range st.Apps {
		ra := v.Apps[i]
		if la.Name != ra.Name || la.Grants != ra.Grants ||
			la.WaitsImmediate != ra.WaitsImmediate || la.WaitsDeferred != ra.WaitsDeferred ||
			la.ConvoyWaitS != ra.ConvoyWaitS || la.ProtocolWaitS != ra.ProtocolWaitS {
			t.Fatalf("app %d decomposition diverged:\nlive   %+v\nreplay %+v", i, la, ra)
		}
	}
}

// TestRecordUnderLoad runs a real daemon with recording enabled under 16
// concurrent network clients (the CI race job runs this with -race), then
// verifies the trace reproduces the live run exactly.
func TestRecordUnderLoad(t *testing.T) {
	const clients, phases, steps = 16, 3, 3
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Source: trace.SourceDaemon, Policy: "fcfs"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startTestServer(t, Config{Policy: core.FCFSPolicy{}, Trace: w})

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := stressClient(t, addr, fmt.Sprintf("app-%03d", i), phases, steps, func() {}, func() {}, nil, nil); err != nil {
				errs <- fmt.Errorf("app-%03d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	live := srv.Stats()
	srv.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := trace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped != 0 {
		t.Fatalf("%d events dropped under load", tr.Dropped)
	}
	v, err := replay.Verify(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Match {
		t.Fatalf("replay diverged from live run: %s", v.Mismatch)
	}
	if want := uint64(clients * phases * steps); v.GrantsServed != want || live.GrantsServed != want {
		t.Fatalf("grants: replay %d, live %d, want %d", v.GrantsServed, live.GrantsServed, want)
	}
}

// TestRecordingStaysAllocFree pins the acceptance bar: with recording
// enabled, the arbitration steady state (release, end, inform, wait, one
// deferred grant) performs zero allocations — identical to the unrecorded
// hot path.
func TestRecordingStaysAllocFree(t *testing.T) {
	w, err := trace.NewWriter(io.Discard, trace.Header{Policy: "fcfs"}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock(), Trace: w})
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	ss := make([]*session, k)
	for i := range ss {
		ss[i] = &session{}
		srv.handle(ss[i], wire.Request{Seq: 1, Type: wire.TypeRegister, App: fmt.Sprintf("app-%02d", i), Cores: 64})
		srv.handle(ss[i], wire.Request{Seq: 2, Type: wire.TypePrepare, Info: map[string]string{core.KeyBytesTotal: "1000000"}})
		srv.handle(ss[i], wire.Request{Seq: 3, Type: wire.TypeInform})
		srv.handle(ss[i], wire.Request{Seq: 4, Type: wire.TypeWait})
	}
	n := 0
	cycle := func() {
		s := ss[n%k]
		n++
		srv.handle(s, wire.Request{Seq: 5, Type: wire.TypeRelease})
		srv.handle(s, wire.Request{Seq: 6, Type: wire.TypeEnd})
		srv.handle(s, wire.Request{Seq: 7, Type: wire.TypeInform})
		srv.handle(s, wire.Request{Seq: 8, Type: wire.TypeWait})
	}
	for i := 0; i < 256; i++ {
		cycle() // warm the decision-log ring and the writer's scratch
	}
	if allocs := testing.AllocsPerRun(512, cycle); allocs != 0 {
		t.Fatalf("recording adds %.2f allocs per arbitration cycle, want 0", allocs)
	}
}

// BenchmarkServerArbitrateRecording is BenchmarkServerArbitrate with trace
// recording enabled: the acceptance criterion is identical allocs/op (0).
func BenchmarkServerArbitrateRecording(b *testing.B) {
	w, err := trace.NewWriter(io.Discard, trace.Header{Policy: "fcfs"}, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock(), Trace: w})
	if err != nil {
		b.Fatal(err)
	}
	const k = 16
	ss := make([]*session, k)
	for i := range ss {
		ss[i] = &session{}
		srv.handle(ss[i], wire.Request{Seq: 1, Type: wire.TypeRegister, App: fmt.Sprintf("app-%02d", i), Cores: 64})
		srv.handle(ss[i], wire.Request{Seq: 2, Type: wire.TypePrepare, Info: map[string]string{core.KeyBytesTotal: "1000000"}})
		srv.handle(ss[i], wire.Request{Seq: 3, Type: wire.TypeInform})
		srv.handle(ss[i], wire.Request{Seq: 4, Type: wire.TypeWait})
	}
	cycle := func(holder int) {
		s := ss[holder]
		srv.handle(s, wire.Request{Seq: 5, Type: wire.TypeRelease})
		srv.handle(s, wire.Request{Seq: 6, Type: wire.TypeEnd})
		srv.handle(s, wire.Request{Seq: 7, Type: wire.TypeInform})
		srv.handle(s, wire.Request{Seq: 8, Type: wire.TypeWait})
	}
	for n := 0; n < 128; n++ {
		cycle(n % k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cycle(n % k)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "grants/s")
}

// denyFirstPolicy denies everyone on the first arbitration and falls back
// to fcfs afterwards: it manufactures a deferred Wait with no other holder,
// the protocol (non-convoy) bucket of the wait decomposition.
type denyFirstPolicy struct{ calls *int }

func (denyFirstPolicy) Name() string { return "deny-first" }

func (p denyFirstPolicy) Arbitrate(now float64, apps []core.AppView) core.Decision {
	*p.calls++
	if *p.calls == 1 {
		return core.Decision{Allowed: map[string]bool{}, Reason: "warming up"}
	}
	return core.AllowOnly(apps[0].Name, "fcfs after warmup")
}

// TestConvoyProtocolBreakdown checks both buckets of the wait
// decomposition with exact logical-clock arithmetic.
func TestConvoyProtocolBreakdown(t *testing.T) {
	t.Run("convoy", func(t *testing.T) {
		srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock()})
		if err != nil {
			t.Fatal(err)
		}
		a := newTestSession(16)
		b := newTestSession(16)
		srv.handle(a, wire.Request{Seq: 1, Type: wire.TypeRegister, App: "A", Cores: 1})
		srv.handle(b, wire.Request{Seq: 1, Type: wire.TypeRegister, App: "B", Cores: 1})
		srv.handle(a, wire.Request{Seq: 2, Type: wire.TypeInform})
		srv.handle(a, wire.Request{Seq: 3, Type: wire.TypeWait}) // immediate
		srv.handle(b, wire.Request{Seq: 2, Type: wire.TypeInform})
		srv.handle(b, wire.Request{Seq: 3, Type: wire.TypeWait}) // deferred behind A
		srv.handle(a, wire.Request{Seq: 4, Type: wire.TypeRelease})
		srv.handle(a, wire.Request{Seq: 5, Type: wire.TypeEnd}) // grants B

		ba, bb := testBinding(srv, a), testBinding(srv, b)
		if ba.waitsImmediate != 1 || ba.waitsDeferred != 0 {
			t.Fatalf("A immediate/deferred = %d/%d, want 1/0", ba.waitsImmediate, ba.waitsDeferred)
		}
		if bb.waitsDeferred != 1 || bb.convoyWait <= 0 || bb.protoWait != 0 {
			t.Fatalf("B deferred=%d convoy=%g proto=%g, want deferred behind A in the convoy bucket",
				bb.waitsDeferred, bb.convoyWait, bb.protoWait)
		}
		st := srv.snapshot(srv.clock())
		// A: 1 immediate; B: 1 deferred. Aggregates mirror that.
		if st.WaitsImmediate != 1 || st.WaitsDeferred != 1 {
			t.Fatalf("aggregate immediate/deferred = %d/%d, want 1/1", st.WaitsImmediate, st.WaitsDeferred)
		}
		if st.ConvoyWaitS != bb.convoyWait || st.ProtocolWaitS != 0 {
			t.Fatalf("aggregate convoy/proto = %g/%g", st.ConvoyWaitS, st.ProtocolWaitS)
		}
		// The aggregates are cumulative like GrantsServed: a departed
		// session's decomposition stays in the machine-wide sums.
		convoyBefore := st.ConvoyWaitS
		srv.drop(b, "test disconnect")
		st2 := srv.snapshot(srv.clock())
		if st2.WaitsImmediate != 1 || st2.WaitsDeferred != 1 || st2.ConvoyWaitS != convoyBefore {
			t.Fatalf("aggregates shrank after disconnect: %+v", st2)
		}
	})
	t.Run("protocol", func(t *testing.T) {
		calls := 0
		srv, err := New(Config{Policy: denyFirstPolicy{&calls}, Clock: logicalClock()})
		if err != nil {
			t.Fatal(err)
		}
		a := &session{}
		srv.handle(a, wire.Request{Seq: 1, Type: wire.TypeRegister, App: "A", Cores: 1})
		srv.handle(a, wire.Request{Seq: 2, Type: wire.TypeInform}) // arbitration 1: denied
		srv.handle(a, wire.Request{Seq: 3, Type: wire.TypeWait})   // deferred, nobody authorized
		srv.handle(a, wire.Request{Seq: 4, Type: wire.TypeInform}) // arbitration 2: granted
		ba := testBinding(srv, a)
		if ba.waitsDeferred != 1 || ba.protoWait <= 0 || ba.convoyWait != 0 {
			t.Fatalf("deferred=%d proto=%g convoy=%g, want the protocol bucket", ba.waitsDeferred, ba.protoWait, ba.convoyWait)
		}
	})
}
