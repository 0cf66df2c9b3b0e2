package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/wire"
)

// verifyTrace closes the writer, reads the trace back and replays it,
// failing the test unless nothing was dropped and the replay matches.
func verifyTrace(t *testing.T, w *trace.Writer, buf *bytes.Buffer) replay.VerifyResult {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if d := w.Dropped(); d != 0 {
		t.Fatalf("%d trace events dropped", d)
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
		t.Fatalf("replay diverged from the live run: %s", v.Mismatch)
	}
	return v
}

// waitParked polls until the shard has exactly n Waits parked.
func waitParked(t *testing.T, sh *shard, n int32) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sh.pending.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("target %q: %d Waits parked, want %d", sh.target, sh.pending.Load(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestInlineQueuedSwitchKeepsOrder drives one target from contended (a Wait
// parked, so frames queue to the shard goroutine) to uncontended (frames run
// inline on the connection reader) and back, every round, while one raw
// session pipelines frames through both paths. Each round:
//
//   - H holds the grant and W parks behind it: the target is contended;
//   - P pipelines prepare/inform/progress/check, which queue;
//   - H releases, W is granted, nothing is parked: P's next frames may run
//     inline and must first drain P's queued ones;
//   - P pipelines progress/check/wait; its Wait parks behind W, so W's
//     release queues again and grants P;
//   - P pipelines release/end, which run inline.
//
// P's responses must arrive in Seq order, the daemon's grant count must
// equal the grants the clients saw, and the recorded trace must replay
// event for event.
func TestInlineQueuedSwitchKeepsOrder(t *testing.T) {
	const rounds = 20
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Source: trace.SourceDaemon, Policy: "fcfs"}, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startTestServer(t, Config{Policy: core.FCFSPolicy{}, Trace: w})

	dialOn := func(name string) client.Target {
		c := dialT(t, addr)
		if err := c.RegisterOn(name, 1, "t"); err != nil {
			t.Fatal(err)
		}
		return c.Target("t")
	}
	h, wt := dialOn("H"), dialOn("W")
	in := core.Info{}
	in.SetFloat(core.KeyBytesTotal, 1)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	var seq uint64
	send := func(reqs ...wire.Request) uint64 {
		t.Helper()
		for _, req := range reqs {
			seq++
			req.Seq = seq
			if err := wire.Write(bw, req); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		return seq
	}
	dec := wire.NewReader(bufio.NewReader(conn))
	var got uint64
	// await reads P's responses through Seq upTo, in order, and returns the
	// last one.
	await := func(upTo uint64) wire.Response {
		t.Helper()
		var r wire.Response
		for got < upTo {
			if err := dec.Read(&r); err != nil {
				t.Fatal(err)
			}
			if r.Seq == 0 {
				continue // grant/revoke push
			}
			if r.Seq != got+1 {
				t.Fatalf("response Seq %d arrived after %d: frames overtook each other", r.Seq, got)
			}
			if !r.OK {
				t.Fatalf("request %d failed: %+v", r.Seq, r)
			}
			got = r.Seq
		}
		return r
	}
	await(send(wire.Request{Type: wire.TypeRegister, App: "P", Cores: 1, Target: "t"}))

	sh, err := srv.shardFor("t")
	if err != nil {
		t.Fatal(err)
	}
	var clientGrants uint64
	cycle := func(tg client.Target) error {
		if err := tg.Prepare(in); err != nil {
			return err
		}
		if err := tg.Inform(); err != nil {
			return err
		}
		return tg.Wait()
	}
	finish := func(tg client.Target) {
		t.Helper()
		if err := tg.Release(1); err != nil {
			t.Fatal(err)
		}
		if err := tg.End(); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < rounds; round++ {
		if err := cycle(h); err != nil {
			t.Fatal(err)
		}
		wDone := make(chan error, 1)
		go func() { wDone <- cycle(wt) }()
		waitParked(t, sh, 1)

		send(wire.Request{Type: wire.TypePrepare, Info: map[string]string{core.KeyBytesTotal: "1"}},
			wire.Request{Type: wire.TypeInform},
			wire.Request{Type: wire.TypeProgress, BytesDone: 0.25},
			wire.Request{Type: wire.TypeCheck})
		finish(h)
		if err := <-wDone; err != nil {
			t.Fatal(err)
		}
		pWait := send(wire.Request{Type: wire.TypeProgress, BytesDone: 0.5},
			wire.Request{Type: wire.TypeCheck},
			wire.Request{Type: wire.TypeWait})
		waitParked(t, sh, 1)
		finish(wt)
		if r := await(pWait); !r.Authorized {
			t.Fatalf("round %d: P's Wait answered without a grant: %+v", round, r)
		}
		await(send(wire.Request{Type: wire.TypeRelease, BytesDone: 1},
			wire.Request{Type: wire.TypeEnd}))
		clientGrants += 3
	}

	live := srv.GrantsServed()
	srv.Close()
	v := verifyTrace(t, w, &buf)
	if live != clientGrants || v.GrantsServed != clientGrants {
		t.Fatalf("grants: daemon %d, replay %d, clients %d", live, v.GrantsServed, clientGrants)
	}
}

// TestCloseDuringMuxBurst closes a recording daemon while mux streams are
// mid-burst, some alone on their target (inline path) and some contending
// (queued path). Close must return, the trace must be lossless and replay
// event for event, and the final stats must count exactly the replayed
// grants: no reader dispatched after shutdown took the shards over.
func TestCloseDuringMuxBurst(t *testing.T) {
	const (
		conns    = 2
		sessions = 32
	)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Source: trace.SourceDaemon, Policy: "fcfs"}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startTestServer(t, Config{Policy: core.FCFSPolicy{}, Trace: w})

	var granted atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		m, err := client.DialMux(addr, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for j := i; j < sessions; j += conns {
			c, err := m.Client()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Register(fmt.Sprintf("burst-%02d", j), 1); err != nil {
				t.Fatal(err)
			}
			// Half the sessions own a target; the rest share four targets.
			target := fmt.Sprintf("solo-%d", j)
			if j%2 == 1 {
				target = fmt.Sprintf("shared-%d", j%8)
			}
			wg.Add(1)
			go func(tg client.Target) {
				defer wg.Done()
				in := core.Info{}
				in.SetFloat(core.KeyBytesTotal, 1)
				for {
					if tg.Prepare(in) != nil || tg.Inform() != nil || tg.Wait() != nil {
						return
					}
					granted.Add(1)
					if tg.Release(1) != nil || tg.End() != nil {
						return
					}
				}
			}(c.Target(target))
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for granted.Load() < 500 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if granted.Load() == 0 {
		t.Fatal("burst served no grants")
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return during a mux burst")
	}
	wg.Wait()

	v := verifyTrace(t, w, &buf)
	if st := srv.Stats(); st.GrantsServed != v.GrantsServed {
		t.Fatalf("final stats count %d grants, replay %d", st.GrantsServed, v.GrantsServed)
	}
	if v.GrantsServed < granted.Load() {
		t.Fatalf("replay counts %d grants, clients saw %d", v.GrantsServed, granted.Load())
	}
}

// TestInlineDrainsQueuedFramesFirst pins the FIFO rule deterministically on
// a server with no shard goroutines, so nothing drains the queue unless an
// inline frame does. P's frames queue twice — once because the shard lock
// is busy, once because a Wait is parked — and each time P's next frame,
// arriving once the target is free again, must run after them, not before.
func TestInlineDrainsQueuedFramesFirst(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Source: trace.SourceDaemon, Policy: "fcfs"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock(), Trace: w})
	if err != nil {
		t.Fatal(err)
	}
	prepare := map[string]string{core.KeyBytesTotal: "1"}
	h, wt, p := newTestSession(64), newTestSession(64), newTestSession(64)
	for i, s := range []*session{h, wt, p} {
		srv.handle(s, wire.Request{Seq: 1, Type: wire.TypeRegister, App: fmt.Sprintf("app-%d", i), Cores: 1, Target: "t"})
		srv.handle(s, wire.Request{Seq: 2, Type: wire.TypePrepare, Info: prepare})
	}
	sh, err := srv.shardFor("t")
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(2)
	route := func(typ string) {
		seq++
		srv.route(p, wire.Request{Seq: seq, Type: typ})
	}
	queued := func(want int) {
		t.Helper()
		if q := len(sh.ch); q != want {
			t.Fatalf("%d envelopes queued, want %d", q, want)
		}
	}

	// Busy lock: P's frames queue behind it.
	sh.mu.Lock()
	route(wire.TypeProgress)
	route(wire.TypeCheck)
	sh.mu.Unlock()
	queued(2)
	route(wire.TypeCheck)
	queued(0)

	// Contended target: H holds, W parks, and P's frames queue.
	srv.handle(h, wire.Request{Seq: 3, Type: wire.TypeInform})
	srv.handle(h, wire.Request{Seq: 4, Type: wire.TypeWait})
	srv.handle(wt, wire.Request{Seq: 3, Type: wire.TypeInform})
	srv.handle(wt, wire.Request{Seq: 4, Type: wire.TypeWait})
	route(wire.TypeInform)
	route(wire.TypeCheck)
	queued(2)
	// H leaves; W's Wait is served and the target is uncontended with P's
	// frames still queued.
	srv.handle(h, wire.Request{Seq: 5, Type: wire.TypeRelease})
	srv.handle(h, wire.Request{Seq: 6, Type: wire.TypeEnd})
	route(wire.TypeWait)
	queued(0)
	srv.handle(wt, wire.Request{Seq: 5, Type: wire.TypeRelease})
	srv.handle(wt, wire.Request{Seq: 6, Type: wire.TypeEnd})
	route(wire.TypeRelease)
	route(wire.TypeEnd)
	queued(0)

	last := uint64(2)
	for r, ok := p.next(); ok; r, ok = p.next() {
		if r.Seq <= 2 {
			continue // a push (Seq 0), or a setup response
		}
		if r.Seq != last+1 || !r.OK {
			t.Fatalf("response %+v after Seq %d: want Seq %d, OK", r, last, last+1)
		}
		last = r.Seq
	}
	if last != seq {
		t.Fatalf("answered through Seq %d, sent %d", last, seq)
	}
	if got := srv.GrantsServed(); got != 3 {
		t.Fatalf("GrantsServed = %d, want 3 (H, W, P)", got)
	}
	if v := verifyTrace(t, w, &buf); v.GrantsServed != 3 {
		t.Fatalf("replay serves %d grants, want 3", v.GrantsServed)
	}
}

// routeServer is a metrics-enabled inline-mode server whose k sessions
// each own a target, so every request route sees is uncontended and runs
// inline; responses queue on each session's buffered out channel.
func routeServer(tb testing.TB, k int) (*Server, []*session) {
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock(), Metrics: obs.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	ss := make([]*session, k)
	for i := range ss {
		ss[i] = newTestSession(16)
		srv.handle(ss[i], wire.Request{Seq: 1, Type: wire.TypeRegister, App: fmt.Sprintf("app-%02d", i),
			Cores: 64, Target: fmt.Sprintf("t%02d", i)})
		srv.handle(ss[i], wire.Request{Seq: 2, Type: wire.TypePrepare, Info: map[string]string{core.KeyBytesTotal: "1000000"}})
		drainOut(ss[i])
	}
	return srv, ss
}

// routeCycle sends one grant cycle through route and returns the Wait's
// response, emptying the session's response queue.
func routeCycle(srv *Server, s *session) wire.Response {
	srv.route(s, wire.Request{Seq: 3, Type: wire.TypeInform})
	srv.route(s, wire.Request{Seq: 4, Type: wire.TypeWait})
	srv.route(s, wire.Request{Seq: 5, Type: wire.TypeRelease})
	srv.route(s, wire.Request{Seq: 6, Type: wire.TypeEnd})
	var wait wire.Response
	for r, ok := s.next(); ok; r, ok = s.next() {
		if r.Seq == 4 {
			wait = r
		}
	}
	return wait
}

func drainOut(s *session) {
	for _, ok := s.next(); ok; _, ok = s.next() {
	}
}

// TestRouteStaysAllocFree pins the reader's inline path — route, inline
// dispatch on the shard, response queued — at zero allocations per grant
// cycle with metrics on, and checks the cycle really ran inline: the Wait
// was granted and nothing was left on the shard's queue.
func TestRouteStaysAllocFree(t *testing.T) {
	srv, ss := routeServer(t, 4)
	n := 0
	var last wire.Response
	cycle := func() {
		last = routeCycle(srv, ss[n%len(ss)])
		n++
	}
	// Warm every target's decision-log ring past its bound (256 records,
	// three arbitrations per cycle).
	for i := 0; i < 128*len(ss); i++ {
		cycle()
	}
	if !last.OK || !last.Authorized {
		t.Fatalf("routed Wait not granted inline: %+v", last)
	}
	for _, sh := range srv.shardsSorted() {
		if q := len(sh.ch); q != 0 {
			t.Fatalf("target %q: %d envelopes queued, want every request inline", sh.target, q)
		}
	}
	if allocs := testing.AllocsPerRun(512, cycle); allocs != 0 {
		t.Fatalf("routed grant cycle allocates %.2f times, want 0", allocs)
	}
}

// BenchmarkServerArbitrateRoute measures one uncontended grant cycle the
// way a connection reader delivers it: route, inline dispatch under the
// shard lock, response queued, with metrics on. The acceptance criterion
// is 0 allocs/op, like the other BenchmarkServerArbitrate variants.
func BenchmarkServerArbitrateRoute(b *testing.B) {
	srv, ss := routeServer(b, 16)
	for n := 0; n < 128*len(ss); n++ {
		routeCycle(srv, ss[n%len(ss)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		routeCycle(srv, ss[n%len(ss)])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "grants/s")
}
