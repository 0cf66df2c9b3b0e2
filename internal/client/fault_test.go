package client_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wire"
)

// startServer runs a daemon on an ephemeral port and returns its address.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.Policy == nil {
		cfg.Policy = core.FCFSPolicy{}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func info(bytes float64) core.Info {
	in := core.Info{}
	in.SetFloat(core.KeyBytesTotal, bytes)
	return in
}

// TestResumeReclaimsGrant is the grant-never-lost / never-duplicated
// invariant across a forced disconnect of a grant holder: A holds the
// grant, B is parked waiting, A's connection is cut. A resumes within the
// grace window, re-drives its state, and both clients complete their
// phases — nothing hangs, and FCFS still serializes them (the arbitration
// itself guarantees a single holder; the test drives the full cycle).
func TestResumeReclaimsGrant(t *testing.T) {
	_, addr := startServer(t, server.Config{GrantGrace: 5 * time.Second})
	p, err := chaos.New(chaos.Options{Target: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	a, err := client.DialOptions(p.Addr(), client.Options{Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Register("A", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("B", 1); err != nil {
		t.Fatal(err)
	}

	sa := client.NewSession(a)
	if err := sa.Begin(info(100)); err != nil {
		t.Fatal(err)
	}
	// B parks behind A.
	if err := b.Prepare(info(100)); err != nil {
		t.Fatal(err)
	}
	if err := b.Inform(); err != nil {
		t.Fatal(err)
	}
	bWait := make(chan error, 1)
	go func() { bWait <- b.Wait() }()
	time.Sleep(30 * time.Millisecond)

	// Cut the holder's connection. Within the grace window A resumes and
	// re-acquires; its next coordination point must succeed.
	p.Cut()
	aDone := make(chan error, 1)
	go func() {
		if err := sa.Yield(50); err != nil {
			aDone <- err
			return
		}
		aDone <- sa.End(100)
	}()

	// The resume's re-arbitration may hand the grant to B first; drive B
	// through its phase so A can finish either way.
	select {
	case err := <-bWait:
		if err != nil {
			t.Fatalf("B wait: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("B hung waiting after holder disconnect-resume")
	}
	if err := b.Release(100); err != nil {
		t.Fatal(err)
	}
	if err := b.Complete(); err != nil {
		t.Fatal(err)
	}
	if err := b.End(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-aDone:
		if err != nil {
			t.Fatalf("A after resume: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("A hung after disconnect-resume")
	}
	if r := a.DegradedReport(); r.SelfGrants != 0 {
		t.Fatalf("coordinated resume self-granted %d times", r.SelfGrants)
	}
	// The daemon counted the resume in its degraded accounting (a resumed
	// session with zero self-grants: coordination never lapsed).
	st, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range st.Degraded {
		if d.Name == "A" && d.Resumes >= 1 && d.SelfGrants == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("stats missing A's resume: %+v", st.Degraded)
	}
}

// TestGraceExpiryReleasesGrant: a crashed holder without resume must not
// convoy the target forever — after the grace window its grant is revoked
// and the waiter is served.
func TestGraceExpiryReleasesGrant(t *testing.T) {
	grace := 150 * time.Millisecond
	_, addr := startServer(t, server.Config{GrantGrace: grace})
	a, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Register("A", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("B", 1); err != nil {
		t.Fatal(err)
	}
	if err := client.NewSession(a).Begin(info(100)); err != nil {
		t.Fatal(err)
	}
	if err := b.Prepare(info(100)); err != nil {
		t.Fatal(err)
	}
	if err := b.Inform(); err != nil {
		t.Fatal(err)
	}
	bWait := make(chan error, 1)
	start := time.Now()
	go func() { bWait <- b.Wait() }()
	time.Sleep(20 * time.Millisecond)
	a.Close() // crash: no End, no resume
	select {
	case err := <-bWait:
		if err != nil {
			t.Fatalf("B wait: %v", err)
		}
		if since := time.Since(start); since < grace {
			t.Fatalf("waiter served after %v, before the %v grace window", since, grace)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("grace window never expired: waiter hung behind a dead holder")
	}
}

// TestStaleIncarnationRejected: a second client claiming a live name with a
// non-winning incarnation is rejected with the typed code, not resumed.
func TestStaleIncarnationRejected(t *testing.T) {
	_, addr := startServer(t, server.Config{GrantGrace: time.Second})
	a, err := client.DialOptions(addr, client.Options{Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Register("APP", 1); err != nil {
		t.Fatal(err)
	}
	b, err := client.DialOptions(addr, client.Options{Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	err = b.Register("APP", 1)
	var re *client.ReplyError
	if !errors.As(err, &re) || re.Code != wire.CodeStaleIncarnation {
		t.Fatalf("same-incarnation register: err=%v, want code %q", err, wire.CodeStaleIncarnation)
	}
	// A legacy (incarnation-less) client colliding with a live name gets the
	// duplicate code.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Register("APP", 1)
	if !errors.As(err, &re) || re.Code != wire.CodeDuplicate {
		t.Fatalf("legacy duplicate register: err=%v, want code %q", err, wire.CodeDuplicate)
	}
}

// TestDrainAnswersPendingWaits: a graceful drain must answer parked waits
// with the retryable draining code instead of leaving them hanging.
func TestDrainAnswersPendingWaits(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	a, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Register("A", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("B", 1); err != nil {
		t.Fatal(err)
	}
	if err := client.NewSession(a).Begin(info(100)); err != nil {
		t.Fatal(err)
	}
	if err := b.Prepare(info(100)); err != nil {
		t.Fatal(err)
	}
	if err := b.Inform(); err != nil {
		t.Fatal(err)
	}
	bWait := make(chan error, 1)
	go func() { bWait <- b.Wait() }()
	time.Sleep(30 * time.Millisecond)
	srv.Drain()
	select {
	case err := <-bWait:
		var re *client.ReplyError
		if !errors.As(err, &re) || re.Code != wire.CodeDraining {
			t.Fatalf("parked wait after drain: err=%v, want code %q", err, wire.CodeDraining)
		}
		if !wire.Retryable(re.Code) {
			t.Fatal("draining must be classified retryable")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked wait hung across drain")
	}
}

// TestFailOpenSelfGrants: with no daemon at all, a fail-open client
// degrades on schedule, self-grants, and — once a daemon appears — resumes
// and reports the lapse, which surfaces in the daemon's stats.
func TestFailOpenSelfGrants(t *testing.T) {
	// Reserve an address, then free it so the client initially has nothing
	// to talk to. (Go listeners set SO_REUSEADDR, so the daemon can bind it
	// afterwards.)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	// The histogram observes the degraded window when the client leaves
	// degraded mode, which is after the daemon has already counted the
	// resume register in its stats.
	windows := obs.NewHistogram(obs.DefaultLatencyBuckets)
	c, err := client.DialOptions(addr, client.Options{
		Reconnect:    true,
		FailOpen:     60 * time.Millisecond,
		BackoffMin:   10 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		DegradedHist: windows,
	})
	if err != nil {
		t.Fatalf("fail-open dial must not fail on a dead address: %v", err)
	}
	defer c.Close()

	done := make(chan error, 1)
	s := client.NewSession(c)
	go func() {
		if err := c.Register("SOLO", 4); err != nil {
			done <- err
			return
		}
		if err := s.Begin(info(100)); err != nil {
			done <- err
			return
		}
		done <- s.End(100)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("degraded phase: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fail-open client blocked forever without a daemon")
	}
	r := c.DegradedReport()
	if r.SelfGrants != 1 || r.Windows != 1 {
		t.Fatalf("degraded report %+v, want 1 self-grant in 1 window", r)
	}

	// A daemon appears on the reserved address: the client must resume and
	// report its lapse.
	srvln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind reserved address %s: %v", addr, err)
	}
	srv, err := server.New(server.Config{Policy: core.FCFSPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(srvln)
	defer srv.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Stats()
		if st.SelfGrants >= 1 {
			// Resumes stays 0 here: the session registered locally while
			// degraded, so this daemon-side register is its first.
			found := false
			for _, d := range st.Degraded {
				if d.Name == "SOLO" && d.SelfGrants == 1 {
					found = true
				}
			}
			if !found {
				t.Fatalf("stats degraded block missing SOLO: %+v", st.Degraded)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never learned of the degraded window: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the resumed session coordinates normally again, once the client
	// has closed its degraded window.
	for windows.Snapshot().Count < 1 {
		if time.Now().After(deadline) {
			t.Fatal("client never left degraded mode after the resume")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Begin(info(10)); err != nil {
		t.Fatalf("post-resume begin: %v", err)
	}
	if err := s.End(10); err != nil {
		t.Fatalf("post-resume end: %v", err)
	}
	if r := c.DegradedReport(); r.SelfGrants != 1 {
		t.Fatalf("post-resume waits must be coordinated, got %d self-grants", r.SelfGrants)
	}
}

// TestReconnectStorm: a fleet behind a reset-happy chaos proxy, every
// connection repeatedly torn mid-protocol, must still complete every phase
// with zero errors and zero self-grants (no fail-open: every wait is
// daemon-coordinated, re-acquired across resumes).
func TestReconnectStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm")
	}
	_, addr := startServer(t, server.Config{GrantGrace: 5 * time.Second})
	p, err := chaos.New(chaos.Options{Target: addr, ResetEvery: 60 * time.Millisecond, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const clients, phases, steps = 8, 3, 2
	var wg sync.WaitGroup
	errs := make([]error, clients)
	waits := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.DialOptions(p.Addr(), client.Options{
				Reconnect:  true,
				BackoffMin: 5 * time.Millisecond,
				BackoffMax: 50 * time.Millisecond,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			if err := c.Register(fmt.Sprintf("storm-%d", i), 2); err != nil {
				errs[i] = err
				return
			}
			s := client.NewSession(c)
			for ph := 0; ph < phases; ph++ {
				if err := s.Begin(info(1000)); err != nil {
					errs[i] = fmt.Errorf("phase %d begin: %w", ph, err)
					return
				}
				waits[i]++
				for st := 1; st < steps; st++ {
					if err := s.Yield(float64(st) * 100); err != nil {
						errs[i] = fmt.Errorf("phase %d yield: %w", ph, err)
						return
					}
					waits[i]++
				}
				if err := s.End(1000); err != nil {
					errs[i] = fmt.Errorf("phase %d end: %w", ph, err)
					return
				}
			}
			if r := c.DegradedReport(); r.SelfGrants != 0 {
				errs[i] = fmt.Errorf("self-granted %d waits without fail-open", r.SelfGrants)
			}
		}(i)
	}
	fleetDone := make(chan struct{})
	go func() { wg.Wait(); close(fleetDone) }()
	select {
	case <-fleetDone:
	case <-time.After(120 * time.Second):
		t.Fatal("reconnect storm: fleet hung")
	}
	total := 0
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
		total += waits[i]
	}
	if want := clients * phases * steps; total != want {
		t.Fatalf("fleet served %d waits, want %d", total, want)
	}
}

// TestDegradedHistObservesWindow: a closed degraded window lands in
// Options.DegradedHist exactly once, carrying the window's length.
func TestDegradedHistObservesWindow(t *testing.T) {
	// Reserve an address, then free it so the client degrades first and a
	// daemon can appear on it later (Go listeners set SO_REUSEADDR).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	h := obs.NewHistogram(obs.DefaultLatencyBuckets)
	c, err := client.DialOptions(addr, client.Options{
		Reconnect:    true,
		FailOpen:     40 * time.Millisecond,
		BackoffMin:   10 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		DegradedHist: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Drive one phase against the dead address: the client degrades on the
	// fail-open schedule and self-grants its way through.
	done := make(chan error, 1)
	s := client.NewSession(c)
	go func() {
		if err := c.Register("HIST", 4); err != nil {
			done <- err
			return
		}
		if err := s.Begin(info(100)); err != nil {
			done <- err
			return
		}
		done <- s.End(100)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("degraded phase: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fail-open client blocked forever without a daemon")
	}
	if got := h.Snapshot().Count; got != 0 {
		t.Fatalf("histogram observed %d windows while one is still open, want 0", got)
	}

	// A daemon appears: adoption closes the window, which must observe.
	srvln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind reserved address %s: %v", addr, err)
	}
	srv, err := server.New(server.Config{Policy: core.FCFSPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(srvln)
	defer srv.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if sn := h.Snapshot(); sn.Count >= 1 {
			if sn.Count != 1 {
				t.Fatalf("histogram observed %d windows, want 1", sn.Count)
			}
			r := c.DegradedReport()
			if sn.Sum <= 0 || sn.Sum > r.Seconds+0.001 {
				t.Fatalf("histogram sum %.3fs inconsistent with degraded report %.3fs", sn.Sum, r.Seconds)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("degraded window never observed into the histogram")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResumeThenCutFailsOpen: a daemon that answers the resume register and
// dies at once must leave the stream down, not healthy on the dead
// connection, so its callers park and FailOpen degrades them on schedule
// instead of spinning on sends that can never succeed. The reply and the
// cut race the resume's unpark, so the scenario repeats.
func TestResumeThenCutFailsOpen(t *testing.T) {
	for i := 0; i < 10; i++ {
		resumeThenCut(t, fmt.Sprintf("CUT%d", i))
	}
}

func resumeThenCut(t *testing.T, name string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// answer serves one v1 JSON connection: it replies OK to n requests.
	answer := func(conn net.Conn, n int) error {
		rd := wire.JSON.NewRequestReader(bufio.NewReader(conn))
		bw := bufio.NewWriter(conn)
		wr := wire.JSON.NewResponseWriter(bw)
		for ; n > 0; n-- {
			var req wire.Request
			if err := rd.Read(&req); err != nil {
				return err
			}
			if err := wr.Write(&wire.Response{Type: wire.TypeResp, Seq: req.Seq, OK: true}); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		return nil
	}
	daemon := make(chan error, 1)
	registered := make(chan struct{})
	go func() {
		daemon <- func() error {
			first, err := ln.Accept()
			if err != nil {
				return err
			}
			if err := answer(first, 1); err != nil {
				return err
			}
			<-registered
			first.Close()
			// The redial: answer the resume register, then go away for good.
			second, err := ln.Accept()
			if err != nil {
				return err
			}
			err = answer(second, 1)
			ln.Close()
			second.Close()
			return err
		}()
	}()

	c, err := client.DialOptions(ln.Addr().String(), client.Options{
		Reconnect:  true,
		FailOpen:   50 * time.Millisecond,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register(name, 1); err != nil {
		t.Fatal(err)
	}
	close(registered)
	select {
	case err := <-daemon:
		if err != nil {
			t.Fatalf("fake daemon: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client never resumed on the redial")
	}

	done := make(chan error, 1)
	s := client.NewSession(c)
	go func() {
		if err := s.Begin(info(1)); err != nil {
			done <- err
			return
		}
		done <- s.End(1)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("phase after the daemon died: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("phase never degraded after the daemon died mid-resume")
	}
	if r := c.DegradedReport(); r.SelfGrants != 1 {
		t.Fatalf("degraded report %+v, want 1 self-grant", r)
	}
}
