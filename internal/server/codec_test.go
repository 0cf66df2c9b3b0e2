package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/wirebin"
)

func dialBinaryT(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.DialOptions(addr, client.Options{Codec: wirebin.Codec{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestBinaryCodecLifecycle drives the canonical phase sequence over the
// negotiated binary codec: the pipelined hello, binary register, grants,
// pushes and stats must behave exactly like the JSON protocol.
func TestBinaryCodecLifecycle(t *testing.T) {
	srv, addr := startTestServer(t, Config{})
	c := dialBinaryT(t, addr)
	if err := c.Register("A", 64); err != nil {
		t.Fatal(err)
	}
	sess := client.NewSession(c)
	if err := sess.Begin(info(100)); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if ok, err := c.Check(); err != nil || !ok {
		t.Fatalf("Check after Begin = %v, %v; want authorized", ok, err)
	}
	if err := sess.Yield(50); err != nil {
		t.Fatalf("Yield: %v", err)
	}
	if err := sess.End(100); err != nil {
		t.Fatalf("End: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.GrantsServed != 2 || srv.GrantsServed() != 2 {
		t.Fatalf("grants served = %d/%d, want 2", st.GrantsServed, srv.GrantsServed())
	}
	if len(st.Apps) != 1 || st.Apps[0].Name != "A" || st.Apps[0].BytesDone != 100 {
		t.Fatalf("app stats = %+v", st.Apps)
	}
}

// TestMixedCodecSessions checks v1 and v2 clients coordinate on the same
// daemon: codec negotiation is per connection, arbitration is oblivious.
func TestMixedCodecSessions(t *testing.T) {
	_, addr := startTestServer(t, Config{Clock: logicalClock()})
	a := dialT(t, addr) // JSON v1
	b := dialBinaryT(t, addr)
	if err := a.Register("A", 4); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("B", 4); err != nil {
		t.Fatal(err)
	}
	sa, sb := client.NewSession(a), client.NewSession(b)
	if err := sa.Begin(info(10)); err != nil {
		t.Fatal(err)
	}
	// B parks behind A (FCFS), then A finishes and B is granted — the grant
	// is pushed to B over the binary codec.
	done := make(chan error, 1)
	go func() {
		if err := sb.Begin(info(10)); err != nil {
			done <- err
			return
		}
		done <- sb.End(10)
	}()
	time.Sleep(20 * time.Millisecond)
	if err := sa.End(10); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("binary session behind JSON holder: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("binary session hung behind JSON holder")
	}
}

// TestCodecConnectionMetrics checks the negotiated-codec connection
// counters and the byte counters beneath the per-connection buffers.
func TestCodecConnectionMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startTestServer(t, Config{Metrics: reg})
	j := dialT(t, addr)
	b := dialBinaryT(t, addr)
	if err := j.Register("J", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("B", 1); err != nil {
		t.Fatal(err)
	}
	if got := srv.m.connsJSON.Value(); got != 1 {
		t.Fatalf("connections{codec=json} = %d, want 1", got)
	}
	if got := srv.m.connsBinary.Value(); got != 1 {
		t.Fatalf("connections{codec=binary} = %d, want 1", got)
	}
	if in, out := srv.m.bytesIn.Value(), srv.m.bytesOut.Value(); in == 0 || out == 0 {
		t.Fatalf("byte counters = in %d, out %d; want both nonzero", in, out)
	}
}

// TestUnsupportedCodecVersionRejected: a hello naming a version the daemon
// does not speak must close the connection rather than guess.
func TestUnsupportedCodecVersionRejected(t *testing.T) {
	_, addr := startTestServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{wire.HelloMagic, 99}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [1]byte
	if _, err := conn.Read(buf[:]); err != io.EOF {
		t.Fatalf("read after bad hello = %v, want EOF (connection closed)", err)
	}
}

// TestSocketTuningAndAcceptSharding exercises the listener options end to
// end: several accept loops and explicit kernel socket buffers must still
// serve every connection exactly once.
func TestSocketTuningAndAcceptSharding(t *testing.T) {
	srv, addr := startTestServer(t, Config{AcceptLoops: 4, SockBuffer: 64 << 10})
	const n = 8
	for i := 0; i < n; i++ {
		c := dialT(t, addr)
		if err := c.Register(string(rune('A'+i)), 1); err != nil {
			t.Fatal(err)
		}
		sess := client.NewSession(c)
		if err := sess.Begin(info(1)); err != nil {
			t.Fatal(err)
		}
		if err := sess.End(1); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.GrantsServed(); got != n {
		t.Fatalf("grants served = %d, want %d", got, n)
	}
}

// TestOversizedReplyAnswered: a Stats snapshot past wire.MaxFrame cannot be
// encoded on any framing. The caller must get a CodeProtocol error under
// its request's Seq rather than hang, and the connection must keep
// serving. ~520 apps with 2 KiB names, registered cheaply over one mux
// connection, push the snapshot over the limit.
func TestOversizedReplyAnswered(t *testing.T) {
	_, addr := startTestServer(t, Config{})
	fleet, err := client.DialMux(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	pad := strings.Repeat("x", 2048)
	for i := 0; i < 520; i++ {
		c, err := fleet.Client()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Register(fmt.Sprintf("%s-%03d", pad, i), 1); err != nil {
			t.Fatal(err)
		}
		if err := c.Prepare(info(1)); err != nil {
			t.Fatal(err)
		}
	}
	mx, err := client.DialMux(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	muxc, err := mx.Client()
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range []struct {
		name string
		c    *client.Client
	}{{"json", dialT(t, addr)}, {"binary", dialBinaryT(t, addr)}, {"mux", muxc}} {
		t.Run(fc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				_, err := fc.c.Stats()
				done <- err
			}()
			select {
			case err := <-done:
				var re *client.ReplyError
				if !errors.As(err, &re) || re.Code != wire.CodeProtocol {
					t.Fatalf("oversized stats: err=%v, want a %q reply", err, wire.CodeProtocol)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("oversized stats reply hung its caller")
			}
			if err := fc.c.Register("after-"+fc.name, 1); err != nil {
				t.Fatalf("connection stopped serving after the oversized reply: %v", err)
			}
		})
	}
}
