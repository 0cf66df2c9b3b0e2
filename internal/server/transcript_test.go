package server

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/wirebin"
)

var updateTranscripts = flag.Bool("update-transcripts", false,
	"rewrite testdata/transcript/*.golden from the current code")

// tapListener records both directions of every accepted connection, in
// accept order, as the daemon reads and writes them.
type tapListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*tapConn
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// conn returns the i-th accepted connection, waiting for the accept.
func (l *tapListener) conn(t *testing.T, i int) *tapConn {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		if i < len(l.conns) {
			c := l.conns[i]
			l.mu.Unlock()
			return c
		}
		l.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("connection %d never accepted", i)
		}
		time.Sleep(time.Millisecond)
	}
}

// dump renders every connection's two byte streams as hex.
func (l *tapListener) dump() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out bytes.Buffer
	for i, c := range l.conns {
		c.mu.Lock()
		fmt.Fprintf(&out, "conn %d client->daemon %d bytes\n%s", i, c.in.Len(), hex.Dump(c.in.Bytes()))
		fmt.Fprintf(&out, "conn %d daemon->client %d bytes\n%s", i, c.out.Len(), hex.Dump(c.out.Bytes()))
		c.mu.Unlock()
	}
	return out.Bytes()
}

type tapConn struct {
	net.Conn
	mu      sync.Mutex
	in, out bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.out.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// TestWireTranscripts pins the bytes of all three framings — v1 JSON, v2
// binary, v3 mux with two streams on one socket — against goldens in
// testdata/transcript. Each framing runs the same script: two sessions
// register; A takes a grant; B informs behind it and receives a pushed
// grant when A ends its phase; B waits, releases and ends; A reads stats.
// Then A's connection is cut while A holds a grant, and A resumes on a
// fresh connection and re-drives its phase. Every step waits for its reply and
// the daemon's clock is constant, so each connection's byte streams are
// deterministic. Regenerate with -update-transcripts.
func TestWireTranscripts(t *testing.T) {
	framings := []struct {
		name string
		dial func(t *testing.T, addr string) (a, b *client.Client, closeAll func())
	}{
		{"json", func(t *testing.T, addr string) (*client.Client, *client.Client, func()) {
			return dialPair(t, addr, client.Options{Reconnect: true})
		}},
		{"binary", func(t *testing.T, addr string) (*client.Client, *client.Client, func()) {
			return dialPair(t, addr, client.Options{Reconnect: true, Codec: wirebin.Codec{}})
		}},
		{"mux", func(t *testing.T, addr string) (*client.Client, *client.Client, func()) {
			m, err := client.DialMux(addr, client.Options{Reconnect: true})
			if err != nil {
				t.Fatal(err)
			}
			a, err := m.Client()
			if err != nil {
				t.Fatal(err)
			}
			b, err := m.Client()
			if err != nil {
				t.Fatal(err)
			}
			return a, b, func() { m.Close() }
		}},
	}
	for _, f := range framings {
		t.Run(f.name, func(t *testing.T) {
			got := runTranscript(t, f.dial)
			path := filepath.Join("testdata", "transcript", f.name+".golden")
			if *updateTranscripts {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s transcript differs from %s:\n%s", f.name, path, got)
			}
		})
	}
}

func dialPair(t *testing.T, addr string, opts client.Options) (*client.Client, *client.Client, func()) {
	t.Helper()
	a, err := client.DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, func() { a.Close(); b.Close() }
}

func runTranscript(t *testing.T, dial func(*testing.T, string) (a, b *client.Client, closeAll func())) []byte {
	srv, err := New(Config{Policy: core.FCFSPolicy{}, GrantGrace: time.Minute,
		Clock: func() float64 { return 42 }})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapListener{Listener: ln}
	go srv.Serve(tap)
	defer srv.Close()

	a, b, closeAll := dial(t, ln.Addr().String())
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	until := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	in := func(total float64) core.Info {
		info := core.Info{}
		info.SetFloat(core.KeyBytesTotal, total)
		return info
	}

	step("register A", a.Register("A", 2))
	step("register B", b.Register("B", 1))
	step("A prepare", a.Prepare(in(100)))
	step("A inform", a.Inform())
	step("A wait", a.Wait())
	step("B prepare", b.Prepare(in(50)))
	step("B inform", b.Inform())
	step("A release", a.Release(100))
	step("A complete", a.Complete())
	step("A end", a.End())
	until("B's pushed grant", b.Authorized)
	step("B wait", b.Wait())
	step("B release", b.Release(50))
	step("B complete", b.Complete())
	step("B end", b.End())
	_, err = a.Stats()
	step("A stats", err)
	step("B close", b.Close())

	// Cut A's connection while it holds a grant: A resumes on a fresh
	// connection and re-drives its phase before the release goes out.
	step("A prepare", a.Prepare(in(10)))
	step("A inform", a.Inform())
	step("A wait", a.Wait())
	tap.conn(t, 0).Conn.Close()
	until("A's resume", func() bool {
		for _, d := range srv.Stats().Degraded {
			if d.Name == "A" && d.Resumes == 1 {
				return true
			}
		}
		return false
	})
	step("A release", a.Release(10))
	step("A complete", a.Complete())
	step("A end", a.End())
	_, err = a.Stats()
	step("A stats", err)
	closeAll()
	srv.Close()
	return tap.dump()
}
