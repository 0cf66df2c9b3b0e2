package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestMaxSessionsAdmission: the MaxSessions bound rejects the registration
// past capacity with the retryable busy code, and a freed slot admits the
// next attempt.
func TestMaxSessionsAdmission(t *testing.T) {
	srv, addr := startTestServer(t, Config{MaxSessions: 2, Metrics: obs.NewRegistry()})
	a := dialT(t, addr)
	b := dialT(t, addr)
	if err := a.Register("A", 4); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("B", 4); err != nil {
		t.Fatal(err)
	}
	c := dialT(t, addr)
	err := c.Register("C", 4)
	var re *client.ReplyError
	if !errors.As(err, &re) || re.Code != wire.CodeBusy {
		t.Fatalf("register over the bound = %v, want a %q reply", err, wire.CodeBusy)
	}
	if !wire.Retryable(re.Code) {
		t.Fatal("busy must be retryable: clients back off instead of failing")
	}
	if got := srv.m.busyRejects.Value(); got != 1 {
		t.Fatalf("busy rejects counter = %d, want 1", got)
	}
	// Freeing a slot (default grace 0: the disconnect drops the session
	// immediately) admits the next registration. The disconnect is processed
	// asynchronously, so poll with fresh connections.
	a.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		d := dialT(t, addr)
		if err := d.Register("D", 4); err == nil {
			break
		}
		d.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after a session disconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHandshakeTimeout: a connection that never registers is dropped at the
// deadline (the slow-loris guard), while a registered session is untouched
// by it.
func TestHandshakeTimeout(t *testing.T) {
	srv, addr := startTestServer(t, Config{
		HandshakeTimeout: 30 * time.Millisecond, Metrics: obs.NewRegistry()})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	var buf [1]byte
	if _, err := raw.Read(buf[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("unregistered connection survived the handshake deadline (read: %v)", err)
	}
	if got := srv.m.handshakeTimeouts.Value(); got != 1 {
		t.Fatalf("handshake timeouts counter = %d, want 1", got)
	}
	// A session that registers in time keeps its connection past the
	// deadline: the timer is disarmed at register.
	c := dialT(t, addr)
	if err := c.Register("A", 4); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	if err := c.Target("").Inform(); err != nil {
		t.Fatalf("registered session dropped after the handshake deadline: %v", err)
	}
}

// TestShedHysteresis drives the brownout water marks directly on a bare
// shard queue: shedding starts at the high-water mark, persists through the
// band between the marks, and stops only at the low-water mark.
func TestShedHysteresis(t *testing.T) {
	sh := &shard{ch: make(chan envelope, queueCap)}
	for i := 0; i < shedHiWater-1; i++ {
		sh.ch <- envelope{}
	}
	if sh.shed() {
		t.Fatalf("queue %d (below hi-water %d) must not shed", len(sh.ch), shedHiWater)
	}
	sh.ch <- envelope{}
	if !sh.shed() {
		t.Fatalf("queue %d (at hi-water) must shed", len(sh.ch))
	}
	for len(sh.ch) > shedLoWater+1 {
		<-sh.ch
	}
	if !sh.shed() {
		t.Fatalf("queue %d (between the marks) must stay in brownout", len(sh.ch))
	}
	<-sh.ch
	if sh.shed() {
		t.Fatalf("queue %d (at lo-water %d) must exit brownout", len(sh.ch), shedLoWater)
	}
	if sh.hot.Load() {
		t.Fatal("hot bit must clear when brownout exits")
	}
}

// TestSheddableVerbs pins the never-shed set: state-critical verbs are
// always admitted, advisory verbs may be shed.
func TestSheddableVerbs(t *testing.T) {
	for _, v := range []string{wire.TypeRegister, wire.TypePrepare, wire.TypeComplete,
		wire.TypeWait, wire.TypeRelease, wire.TypeEnd} {
		if sheddable(v) {
			t.Errorf("%s is state-critical and must never shed", v)
		}
	}
	for _, v := range []string{wire.TypeInform, wire.TypeProgress, wire.TypeCheck, wire.TypeStats} {
		if !sheddable(v) {
			t.Errorf("%s is advisory and must be sheddable", v)
		}
	}
}

// TestRateLimitWarnsThenDisconnects: the first over-limit request gets one
// retryable overloaded reply; a second violation with no compliant request
// in between disconnects the connection. The logical clock makes refill
// negligible, so with RateLimit 1 the register consumes the whole burst.
func TestRateLimitWarnsThenDisconnects(t *testing.T) {
	srv, addr := startTestServer(t, Config{
		RateLimit: 1, Clock: logicalClock(), Metrics: obs.NewRegistry()})
	c := dialT(t, addr)
	if err := c.Register("A", 4); err != nil {
		t.Fatal(err)
	}
	_, err := c.Check()
	var re *client.ReplyError
	if !errors.As(err, &re) || re.Code != wire.CodeOverloaded {
		t.Fatalf("first over-limit request = %v, want a %q reply", err, wire.CodeOverloaded)
	}
	if !wire.Retryable(re.Code) {
		t.Fatal("overloaded must be retryable")
	}
	// Sustained abuse: the next over-limit request kills the connection (a
	// transport error, not another reply).
	_, err = c.Check()
	if err == nil {
		t.Fatal("second over-limit request must fail")
	}
	if errors.As(err, &re) {
		t.Fatalf("second violation should disconnect, not reply (got %q)", re.Code)
	}
	if got := srv.m.rateLimited.Value(); got != 2 {
		t.Fatalf("rate-limited counter = %d, want 2", got)
	}
}

// TestSlowClientDisconnect: a session whose write buffer overflows is cut
// off and counted in calciomd_slow_disconnects_total, and with a grace
// window configured the subsequent disconnect parks the session in limbo —
// name reserved, grants intact — instead of revoking immediately. Driven
// inline with a 1-slot buffer and no write loop, so the overflow is
// deterministic.
func TestSlowClientDisconnect(t *testing.T) {
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock(),
		WriteBuffer: 1, GrantGrace: time.Hour, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	cconn, sconn := net.Pipe()
	defer cconn.Close()
	s := newTestSession(1)
	s.c.nc, s.c.srv = sconn, srv
	srv.sessions[s] = struct{}{}
	srv.handle(s, wire.Request{Seq: 1, Type: wire.TypeRegister, App: "A", Cores: 4}) // fills the only slot
	srv.handle(s, wire.Request{Seq: 2, Type: wire.TypeInform})                       // overflows it
	if got := srv.m.slowDisconnects.Value(); got != 1 {
		t.Fatalf("slow disconnects counter = %d, want 1", got)
	}
	cconn.SetReadDeadline(time.Now().Add(time.Second))
	var buf [1]byte
	if _, err := cconn.Read(buf[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("overflow must close the connection (read: %v)", err)
	}
	// The reader reports the dead connection; with a grace window the
	// session enters limbo rather than being dropped.
	srv.disconnect(s)
	if !s.limbo {
		t.Fatal("slow disconnect with grace configured must park the session in limbo")
	}
	if _, reserved := srv.names["A"]; !reserved {
		t.Fatal("name must stay reserved through the grace window")
	}
	if bb := testBinding(srv, s); bb == nil || !bb.app.Authorized() {
		t.Fatal("the slow client's grant must survive into the grace window, not be revoked immediately")
	}
}

// BenchmarkServerArbitrateLimited is BenchmarkServerArbitrate with the whole
// overload-protection layer configured (session bound, handshake deadline,
// rate limit, metrics): the arbitration hot path must stay allocation-free
// with limits enabled, because admission and rate limiting live on the
// register path and the reader goroutines, not in the arbitration core.
func BenchmarkServerArbitrateLimited(b *testing.B) {
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock(),
		MaxSessions: 64, HandshakeTimeout: time.Hour, RateLimit: 1e9,
		Metrics: obs.NewRegistry()})
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
