package client_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wirebin"
)

// The happy paths are exercised end-to-end by internal/server's integration
// and stress tests; here we pin the client-side failure modes.

func TestConnectionLossFailsPendingCalls(t *testing.T) {
	srv, err := server.New(server.Config{Policy: core.FCFSPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	go srv.ListenAndServe()
	t.Cleanup(func() { srv.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server never listened")
		}
		time.Sleep(time.Millisecond)
	}

	a, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.Dial(srv.Addr().String())
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
	// A holds access; B parks in Wait, then the daemon goes away: B's
	// blocked Wait and every later call must fail, not hang.
	in := core.Info{}
	in.SetFloat(core.KeyBytesTotal, 10)
	if err := client.NewSession(a).Begin(in); err != nil {
		t.Fatal(err)
	}
	if err := b.Prepare(in); err != nil {
		t.Fatal(err)
	}
	if err := b.Inform(); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- b.Wait() }()
	time.Sleep(20 * time.Millisecond)
	srv.Close()
	select {
	case err := <-waitErr:
		if err == nil || !strings.Contains(err.Error(), "connection lost") {
			t.Fatalf("blocked Wait after shutdown: %v, want connection lost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Wait hung after server shutdown")
	}
	if err := b.Inform(); err == nil {
		t.Fatal("call on dead connection succeeded")
	}
	if b.Authorized() {
		t.Fatal("dead client still reports authorization")
	}
}

// TestOversizedRequestFails: a request past wire.MaxFrame cannot be
// encoded, so no reconnect can send it. With Options.Reconnect on, every
// framing must return the encode failure to the caller — not retry it as a
// transport error forever — and the session must keep working.
func TestOversizedRequestFails(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	huge := core.Info{"blob": strings.Repeat("x", 2<<20)}
	opts := client.Options{Reconnect: true}
	dial := map[string]func() (*client.Client, func(), error){
		"json": func() (*client.Client, func(), error) {
			c, err := client.DialOptions(addr, opts)
			return c, func() { c.Close() }, err
		},
		"binary": func() (*client.Client, func(), error) {
			o := opts
			o.Codec = wirebin.Codec{}
			c, err := client.DialOptions(addr, o)
			return c, func() { c.Close() }, err
		},
		"mux": func() (*client.Client, func(), error) {
			m, err := client.DialMux(addr, opts)
			if err != nil {
				return nil, nil, err
			}
			c, err := m.Client()
			return c, func() { m.Close() }, err
		},
	}
	for _, name := range []string{"json", "binary", "mux"} {
		t.Run(name, func(t *testing.T) {
			c, closeFn, err := dial[name]()
			if err != nil {
				t.Fatal(err)
			}
			defer closeFn()
			if err := c.Register("big-"+name, 1); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- c.Prepare(huge) }()
			select {
			case err := <-done:
				var re *client.ReplyError
				if err == nil || errors.As(err, &re) {
					t.Fatalf("oversized prepare: err=%v, want the local encode failure", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("oversized prepare never returned")
			}
			if err := c.Prepare(info(1)); err != nil {
				t.Fatalf("session unusable after the encode failure: %v", err)
			}
		})
	}
}
