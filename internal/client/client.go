// Package client is the application-side library for calciomd: a blocking
// client that mirrors the in-simulator core.Coordinator API
// (Prepare/Complete/Inform/Check/Wait/Release/End plus a Session wrapper
// with Begin/Yield/End), so driver code written against the simulator's
// coordination calls maps one-to-one onto the live daemon.
//
// Coordination is per storage target: Client.Target returns a handle scoped
// to one target's independent coordination domain, and the plain Client
// methods are the handle for the session's default target (set by
// RegisterOn, itself defaulting to "") — so code that never mentions
// targets speaks the original single-target protocol unchanged. Waiting on
// one target never blocks calls on another from a different goroutine, but
// a single Client remains a one-application-goroutine object per target
// handle; the internal reader goroutine that dispatches responses and
// per-target authorization pushes is fully encapsulated.
//
// Every Client is one stream of a connection (see Mux): DialOptions gives
// it a private connection carrying that one stream over the v1 JSON or v2
// binary framing, and DialMux shares one connection across many streams
// over the v3 mux framing. Dial, negotiation, the read loop, the write
// path and reconnect/resume are the same code either way.
//
// # Fault tolerance
//
// A Client dialed with Options.Reconnect survives its coordinator: a lost
// connection triggers automatic redial with exponential backoff and jitter,
// and the session resumes — it re-registers under the same application name
// with a monotonically increasing incarnation, then lazily re-drives each
// target's protocol state (the stacked prepares, the open phase, and a
// re-acquiring Wait when it held authorization) from a client-side journal
// before retrying the interrupted call. The daemon resets a resumed
// session's protocol state at rebind, so the journal re-drive is correct
// whether the daemon kept the session in a grace window, restarted from
// scratch, or never heard of it.
//
// CALCioM coordination is advisory, so a dead coordinator must never wedge
// the application's I/O: Options.FailOpen bounds how long any call blocks
// on an unreachable daemon. Past the deadline the client enters degraded
// mode — every coordination verb succeeds locally and Wait self-grants —
// while reconnection continues in the background; on resume the
// self-granted waits and the degraded seconds are reported to the daemon,
// which surfaces them in Stats so operators can see exactly when
// coordination lapsed. Without Reconnect (plain Dial) any connection error
// remains terminal, exactly the original fail-fast behavior.
package client

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ErrClosed reports a call on a closed client.
var ErrClosed = errors.New("client: closed")

// ReplyError is an error reply from the daemon: the protocol-level failure
// of one request, as opposed to a transport failure. Code classifies it
// (see the wire.Code* constants); Retryable codes name transient daemon
// conditions — draining (retried through a reconnect cycle), busy and
// overloaded (retried in place after an exponential backoff) — that a
// reconnecting client retries transparently.
type ReplyError struct {
	Code string
	Msg  string
}

func (e *ReplyError) Error() string { return e.Msg }

// transportError marks a connection-level failure (send, receive, or the
// connection dying under a parked call) — retryable after reconnecting.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

func isTransport(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// completion is the single message a pending call receives: the daemon's
// response, or lost=true when the connection died (or the client closed)
// under the call.
type completion struct {
	resp wire.Response
	lost bool
}

// pendingCall parks one in-flight request. The channel has capacity one and
// receives exactly one completion per round trip — whoever removes the entry
// from the pending map (reader, connection-loss sweep, or the failed sender
// itself) owns delivery — so the call object and its channel are pooled and
// reused across requests instead of allocated per call.
type pendingCall struct {
	ch chan completion
}

var callPool = sync.Pool{New: func() any { return &pendingCall{ch: make(chan completion, 1)} }}

// failPending completes every parked call with lost=true. With reconnect the
// pending map is replaced (later calls park against the next connection);
// otherwise it is retired and cause becomes the terminal receive error.
func (c *Client) failPending(reconnect bool, cause error) {
	c.mu.Lock()
	pend := c.pending
	if reconnect {
		c.pending = make(map[uint64]*pendingCall)
	} else {
		c.pending = nil
		c.err = cause
	}
	c.mu.Unlock()
	for _, pc := range pend {
		pc.ch <- completion{lost: true}
	}
}

// Default backoff bounds for Options.Reconnect.
const (
	DefaultBackoffMin = 25 * time.Millisecond
	DefaultBackoffMax = time.Second
)

// Options configures the client's failure behavior. The zero value is the
// original fail-fast client: one connection, any error terminal.
type Options struct {
	// Reconnect redials a lost connection with exponential backoff plus
	// jitter and resumes the session (same name, higher incarnation, state
	// re-driven from the client-side journal) instead of failing calls.
	Reconnect bool
	// BackoffMin/BackoffMax bound the redial backoff; zero means the
	// defaults (25ms / 1s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// FailOpen, when positive, bounds how long coordination blocks on an
	// unreachable daemon: past this deadline the session self-grants
	// (degraded, uncoordinated I/O — counted and reported on resume) while
	// reconnection continues in the background. 0 means block until the
	// daemon is back (never uncoordinated). Requires Reconnect.
	FailOpen time.Duration
	// DegradedHist, when non-nil, observes the length in seconds of every
	// closed degraded window, so a fleet embedding the client can expose
	// its fail-open episodes on the same /metrics surface as the daemon.
	// Observation happens when a window closes (connection re-adopted or
	// final report), never on the coordination path.
	DegradedHist *obs.Histogram
	// Codec selects the wire encoding. Nil (or wire.JSON) speaks the v1
	// length-prefixed JSON protocol byte for byte. wirebin.Codec negotiates
	// the v2 binary codec: the client pipelines the two-byte hello with its
	// first request, so negotiation adds no round trip, but the daemon must
	// understand the hello — a binary client cannot talk to a pre-v2
	// daemon.
	Codec wire.Codec
}

// tjournal is the client's per-target protocol journal: enough intended
// state to re-drive a target after a resume (the daemon resets the session
// at rebind) and to keep coordinating locally in degraded mode. Owned by
// the goroutine driving that target's handle, like the handle itself.
type tjournal struct {
	live      uint64      // connection generation this target last synced on
	prepared  []core.Info // the prepare stack, oldest first
	phaseOpen bool        // Inform succeeded since the last End
	holding   bool        // Wait succeeded since the last End
}

// Client is one application's session with the coordination daemon: one
// stream of a Mux, either shared (Mux.Client) or private (DialOptions).
type Client struct {
	opts Options

	// mx is the connection this session rides and stream its id there;
	// writes go through mx and its read loop dispatches responses by
	// stream id.
	mx     *Mux
	stream uint64

	// cmu guards the stream's state machine: healthy/degraded/terminal
	// mode, and the stateCh pulse callers park on while it is down. live is
	// the connection generation a healthy stream is up on, 0 while down.
	cmu      sync.Mutex
	live     uint64
	degraded bool
	termErr  error
	closed   bool
	stateCh  chan struct{} // non-nil while down/degraded; closed on any mode change

	seq atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	err     error // terminal receive error; set once (fail-fast mode)

	// auth caches the server's per-target view, updated by responses and by
	// pushed grant/revoke notifications (the server echoes the resolved
	// target on every frame), so Check can be answered with a round trip
	// (authoritative) while pushes keep it warm in between.
	amu  sync.Mutex
	auth map[string]bool

	// defTarget is the session's default target, set by RegisterOn before
	// any other coordination call (so later reads need no lock).
	defTarget string

	// Registration identity, kept for resume. regMu guards the fields; the
	// incarnation increases on every register attempt so a resume always
	// outbids whatever the daemon last accepted from this client.
	regMu       sync.Mutex
	regName     string
	regCores    int
	registered  bool
	incarnation uint64

	// A journal synced on an older connection generation than the stream is
	// live on must resync before its target's next call.
	jmu     sync.Mutex
	journal map[string]*tjournal

	// Degraded (fail-open) accounting. pendSelf/pendDegraded are the
	// not-yet-reported amounts a resume register carries to the daemon.
	dmu           sync.Mutex
	selfGrants    uint64
	degradedSec   float64
	windows       uint64
	degradedSince time.Time
	inWindow      bool
	pendSelf      uint64
	pendDegraded  float64

	// Client-side trace capture (CaptureTo); nil when not recording.
	tw       *trace.Writer
	tsid     uint32
	tclock   func() float64
	traceReg atomic.Bool // a successful Register was recorded

	done     chan struct{} // closed when the client is finished (Close, or fail-fast death)
	doneOnce sync.Once
}

func (c *Client) finish() { c.doneOnce.Do(func() { close(c.done) }) }

// Dial connects to a daemon with the original fail-fast behavior: any
// connection error is terminal.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects to a daemon with explicit failure behavior. With
// Reconnect set, even the initial dial failing is not fatal if FailOpen is
// positive — the client starts disconnected, recovering in the background,
// and fails open on schedule; with FailOpen zero the initial dial must
// succeed.
//
// The client is the single stream of a private connection: the same
// machinery DialMux shares across many sessions, carrying one implicit
// stream over the v1 JSON or v2 binary framing. Close closes it.
func DialOptions(addr string, opts Options) (*Client, error) {
	m, err := connect(addr, opts, false)
	if err != nil {
		return nil, err
	}
	return m.Client()
}

// CaptureTo attaches a client-side trace recorder: every successful
// coordination call is recorded (at its send time) under the given session
// identity, and a served Wait additionally records the observed grant. The
// writer may be shared by many clients — calciom-load records its whole
// fleet into one file. Unlike a daemon-side trace this capture is
// observational: timestamps are client clocks, and the grant events are
// client-observed, so it supports what-if replay but not exact
// verification. Set it before the first call; the recorded Info maps must
// not be mutated afterwards. (With Reconnect, resumed state is re-driven
// and so recorded again — the capture shows the retries, like the daemon's
// own trace would.)
func (c *Client) CaptureTo(w *trace.Writer, sid uint32, clock func() float64) {
	c.tw, c.tsid, c.tclock = w, sid, clock
}

func (c *Client) rec(ev trace.Event) {
	if c.tw != nil {
		ev.SID = c.tsid
		c.tw.Record(ev)
	}
}

func (c *Client) tnow() float64 {
	if c.tclock == nil {
		return 0
	}
	return c.tclock()
}

// Close tears the client down; outstanding calls fail with ErrClosed. A
// client from DialOptions closes its connection; a Mux.Client stream just
// leaves the shared one, so the daemon's idle eviction (or the mux
// closing) reclaims the server-side session. With a capture attached, one
// unregister is recorded for the whole session — replay propagates it to
// every target the session coordinated on.
func (c *Client) Close() error {
	if c.tw != nil && c.traceReg.CompareAndSwap(true, false) {
		c.rec(trace.Event{Type: trace.EvUnregister, Time: c.tnow(), Target: c.defTarget})
	}
	c.cmu.Lock()
	if c.closed {
		c.cmu.Unlock()
		return nil
	}
	c.closed = true
	if c.stateCh != nil {
		close(c.stateCh)
		c.stateCh = nil
	}
	c.cmu.Unlock()
	c.finish()
	c.mx.detach(c)
	c.failPending(false, ErrClosed)
	return nil
}

// dispatch folds one received response into the client: pushes update the
// cached authorization, replies complete their pending call. Called from the
// single reader of the connection this client's stream rides.
func (c *Client) dispatch(resp *wire.Response) {
	switch resp.Type {
	case wire.TypeGrant:
		c.setAuth(resp.Target, true)
	case wire.TypeRevoke:
		c.setAuth(resp.Target, false)
	case wire.TypeResp:
		// Every response carries the server's current authorization on
		// the request's (resolved) target; caching it here — the single
		// writer, in arrival order — means a pushed revocation can
		// never be overwritten by a caller goroutine finishing an older
		// round trip late. Overload replies (busy, shed, rate-limited)
		// are the exception: the daemon emits them from its reader
		// goroutine without sight of shard state, so their Authorized
		// bit carries no information.
		if resp.Code != wire.CodeBusy && resp.Code != wire.CodeOverloaded {
			c.setAuth(resp.Target, resp.Authorized)
		}
		c.mu.Lock()
		pc := c.pending[resp.Seq]
		delete(c.pending, resp.Seq)
		c.mu.Unlock()
		if pc != nil {
			pc.ch <- completion{resp: *resp}
		}
	}
}

// terminal kills the client: recovery is impossible (the name was taken by
// a newer incarnation, or an equally unrecoverable rejection).
func (c *Client) terminal(err error) {
	c.cmu.Lock()
	if c.closed {
		c.cmu.Unlock()
		return
	}
	c.termErr = err
	st := c.stateCh
	c.stateCh = nil
	c.cmu.Unlock()
	if st != nil {
		close(st)
	}
}

// enterDegraded flips the client into fail-open mode: coordination verbs
// self-serve from here until the stream resumes.
func (c *Client) enterDegraded() {
	c.cmu.Lock()
	if c.closed || c.degraded || c.live != 0 {
		c.cmu.Unlock()
		return
	}
	c.degraded = true
	st := c.stateCh
	c.stateCh = make(chan struct{})
	c.cmu.Unlock()
	c.dmu.Lock()
	c.degradedSince = time.Now()
	c.inWindow = true
	c.windows++
	c.dmu.Unlock()
	if st != nil {
		close(st)
	}
}

// endWindow closes the open degraded window (caller holds cmu).
func (c *Client) endWindow() {
	c.dmu.Lock()
	if c.inWindow {
		d := time.Since(c.degradedSince).Seconds()
		c.degradedSec += d
		c.pendDegraded += d
		c.inWindow = false
		if c.opts.DegradedHist != nil {
			c.opts.DegradedHist.Observe(d)
		}
	}
	c.dmu.Unlock()
}

// snapshotReport returns the degraded amounts to report on a resume: the
// unreported totals plus the still-open window so far.
func (c *Client) snapshotReport() (uint64, float64) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	self, deg := c.pendSelf, c.pendDegraded
	if c.inWindow {
		deg += time.Since(c.degradedSince).Seconds()
	}
	return self, deg
}

// markReported subtracts amounts the daemon has accepted. Self-grants that
// landed during the resume stay pending for the next report; reported
// open-window seconds are rebased by moving the window start forward.
func (c *Client) markReported(self uint64, deg float64) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	c.pendSelf -= min(self, c.pendSelf)
	c.pendDegraded -= deg
	if c.pendDegraded < 0 {
		// Part of the report came from the open window; rebase it so the
		// remainder is not reported twice.
		if c.inWindow {
			c.degradedSince = c.degradedSince.Add(time.Duration(-c.pendDegraded * float64(time.Second)))
		}
		c.pendDegraded = 0
	}
}

// DegradedReport is a client's cumulative fail-open accounting.
type DegradedReport struct {
	// SelfGrants counts Waits the client granted itself while the daemon
	// was unreachable past the fail-open deadline.
	SelfGrants uint64
	// Seconds is the total time spent in degraded (uncoordinated) mode.
	Seconds float64
	// Windows counts distinct degraded episodes.
	Windows uint64
}

// DegradedReport returns the client's fail-open accounting so far (an open
// degraded window is included up to now). The same numbers are reported to
// the daemon on resume and surfaced in its Stats.
func (c *Client) DegradedReport() DegradedReport {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	r := DegradedReport{SelfGrants: c.selfGrants, Seconds: c.degradedSec, Windows: c.windows}
	if c.inWindow {
		r.Seconds += time.Since(c.degradedSince).Seconds()
	}
	return r
}

// mode is the stream's state, as the retry loops see it.
type mode int

const (
	modeHealthy mode = iota
	modeDown
	modeDegraded
	modeTerminal
	modeClosed
)

// mode reads the stream's state machine for the retry loops. A healthy
// stream also reports the connection generation it is live on, which the
// caller's requests are bound to (see Mux.send); a down one, the pulse its
// callers park on.
func (c *Client) mode() (mode, uint64, chan struct{}, error) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	switch {
	case c.closed:
		return modeClosed, 0, nil, ErrClosed
	case c.termErr != nil:
		return modeTerminal, 0, nil, c.termErr
	case c.degraded:
		return modeDegraded, 0, nil, nil
	case c.live != 0:
		return modeHealthy, c.live, nil, nil
	default:
		return modeDown, 0, c.stateCh, nil
	}
}

// await parks until the connection state changes from down, returning the
// mode that ended the wait.
func (c *Client) await() (mode, error) {
	for {
		m, _, st, err := c.mode()
		if m != modeDown {
			return m, err
		}
		if st == nil {
			return m, errors.New("client: connection down")
		}
		select {
		case <-st:
		case <-c.done:
			return modeClosed, ErrClosed
		}
	}
}

// rawCall performs one blocking request/response round trip on connection
// generation live; if that connection is gone it fails as a transport
// error rather than reach a later connection the caller has not synced
// with. Responses may be served out of order by the daemon (Wait is
// answered only at grant time), so each call parks on its own channel keyed
// by Seq. Failures are typed: *transportError is retryable after recovery,
// *ReplyError is the daemon's answer, and anything else (an unencodable
// request) is final.
func (c *Client) rawCall(live uint64, req wire.Request) (wire.Response, error) {
	req.Seq = c.seq.Add(1)
	pc := callPool.Get().(*pendingCall)
	c.mu.Lock()
	if c.pending == nil {
		err := c.err
		c.mu.Unlock()
		callPool.Put(pc)
		return wire.Response{}, err
	}
	c.pending[req.Seq] = pc
	c.mu.Unlock()

	if err := c.mx.send(live, c.stream, &req); err != nil {
		// Reclaim the entry — unless a concurrent connection-loss sweep (or
		// a response racing the send failure) already took it, in which case
		// a completion is in flight and must be drained before reuse.
		c.mu.Lock()
		_, mine := c.pending[req.Seq]
		if mine {
			delete(c.pending, req.Seq)
		}
		c.mu.Unlock()
		if !mine {
			<-pc.ch
		}
		callPool.Put(pc)
		return wire.Response{}, err
	}

	comp := <-pc.ch
	callPool.Put(pc)
	if comp.lost {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = &transportError{errors.New("client: connection lost")}
		}
		return wire.Response{}, err
	}
	if comp.resp.Err != "" {
		return comp.resp, &ReplyError{Code: comp.resp.Code, Msg: comp.resp.Err}
	}
	return comp.resp, nil
}

// call wraps rawCall with the recovery loop for requests with no per-target
// journal (stats): transport errors wait out the outage and retry;
// retryable daemon errors force a reconnect cycle (draining) or an
// in-place backoff (busy/overloaded) first.
func (c *Client) call(req wire.Request) (wire.Response, error) {
	overload := 0
	for {
		m, live, _, err := c.mode()
		switch m {
		case modeClosed, modeTerminal:
			return wire.Response{}, err
		case modeDegraded:
			return wire.Response{}, errors.New("client: degraded: coordinator unreachable")
		case modeDown:
			if _, err := c.await(); err != nil {
				return wire.Response{}, err
			}
			continue
		}
		resp, err := c.rawCall(live, req)
		if err == nil {
			return resp, nil
		}
		if !c.opts.Reconnect {
			return resp, err
		}
		if isTransport(err) {
			continue // loop re-reads mode and parks in await
		}
		var re *ReplyError
		if errors.As(err, &re) && wire.Retryable(re.Code) {
			if overload = c.retryReply(re.Code, overload); overload < 0 {
				return wire.Response{}, ErrClosed
			}
			continue
		}
		return resp, err
	}
}

// retryReply handles one retryable daemon error inside a retry loop:
// draining cycles the connection (the daemon is going away; the successor
// is reached by redial), while the overload codes — busy at admission,
// overloaded under shedding or rate limiting — back off in place, because
// the connection is healthy and cycling it would only add load to a daemon
// already protecting itself. attempt counts prior overload backoffs (for
// the exponential schedule); the return is the next attempt count, or -1
// when the client closed mid-backoff and the caller must give up.
func (c *Client) retryReply(code string, attempt int) int {
	if code == wire.CodeDraining {
		c.mx.kick()
		return attempt
	}
	d := c.opts.BackoffMin << min(attempt, 16)
	if d <= 0 || d > c.opts.BackoffMax {
		d = c.opts.BackoffMax
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	select {
	case <-time.After(d):
		return attempt + 1
	case <-c.done:
		return -1
	}
}

func (c *Client) setAuth(target string, v bool) {
	c.amu.Lock()
	c.auth[target] = v
	c.amu.Unlock()
}

func (c *Client) getAuth(target string) bool {
	c.amu.Lock()
	defer c.amu.Unlock()
	return c.auth[target]
}

func (c *Client) journalFor(target string) *tjournal {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	j := c.journal[target]
	if j == nil {
		// A fresh journal has nothing to re-drive: synced wherever the
		// stream is now.
		c.cmu.Lock()
		j = &tjournal{live: c.live}
		c.cmu.Unlock()
		c.journal[target] = j
	}
	return j
}

// ensureSynced re-drives a target's journal after a resume: the daemon
// reset the session's protocol state at rebind, so the stacked prepares,
// the open phase, and — when the client held authorization — a blocking
// re-acquiring Wait are re-issued before the interrupted call retries.
func (c *Client) ensureSynced(t Target, live uint64) error {
	if !c.opts.Reconnect {
		return nil
	}
	c.regMu.Lock()
	registered := c.registered
	c.regMu.Unlock()
	if !registered {
		return nil
	}
	j := c.journalFor(t.resolved())
	if j.live == live {
		return nil
	}
	j.live = live
	redrive := func(req wire.Request) error {
		if _, err := c.rawCall(live, req); err != nil {
			j.live = 0 // resync again after the next recovery
			return err
		}
		return nil
	}
	for _, info := range j.prepared {
		if err := redrive(wire.Request{Type: wire.TypePrepare, Info: info, Target: t.send}); err != nil {
			return err
		}
	}
	if j.phaseOpen {
		if err := redrive(wire.Request{Type: wire.TypeInform, Target: t.send}); err != nil {
			return err
		}
		if j.holding {
			if err := redrive(wire.Request{Type: wire.TypeWait, Target: t.send}); err != nil {
				return err
			}
		}
	}
	return nil
}

// note updates the target's journal after one successful verb, keeping it
// exactly the state a resync must re-drive.
func (j *tjournal) note(typ string, info core.Info) {
	switch typ {
	case wire.TypePrepare:
		j.prepared = append(j.prepared, info)
	case wire.TypeComplete:
		if n := len(j.prepared); n > 0 {
			j.prepared = j.prepared[:n-1]
		}
	case wire.TypeInform:
		j.phaseOpen = true
	case wire.TypeWait:
		j.holding = true
	case wire.TypeEnd:
		j.phaseOpen = false
		j.holding = false
	}
}

// selfServe answers one coordination verb locally in degraded mode: the
// journal advances exactly as if the daemon had said yes, and a Wait is a
// counted self-grant. When the daemon comes back the journal re-drives the
// resulting state through the real protocol.
func (c *Client) selfServe(t Target, req wire.Request) wire.Response {
	j := c.journalFor(t.resolved())
	j.note(req.Type, core.Info(req.Info))
	resp := wire.Response{Type: wire.TypeResp, OK: true, Target: t.resolved()}
	switch req.Type {
	case wire.TypeWait:
		c.dmu.Lock()
		c.selfGrants++
		c.pendSelf++
		c.dmu.Unlock()
		c.setAuth(t.resolved(), true)
		resp.Authorized = true
	case wire.TypeCheck:
		// Degraded coordination is self-coordination: the session is always
		// authorized by itself.
		resp.Authorized = true
	case wire.TypeEnd:
		c.setAuth(t.resolved(), false)
	default:
		resp.Authorized = c.getAuth(t.resolved())
	}
	return resp
}

// invoke is the robust round trip for one coordination verb on one target:
// degraded mode self-serves, a stale journal resyncs first, transport
// errors wait out the outage and retry, and retryable daemon errors force
// a reconnect cycle (draining) or an in-place backoff (busy/overloaded).
// On success the journal advances.
func (t Target) invoke(req wire.Request) (wire.Response, error) {
	c := t.c
	overload := 0
	for {
		m, live, _, err := c.mode()
		switch m {
		case modeClosed, modeTerminal:
			return wire.Response{}, err
		case modeDegraded:
			return c.selfServe(t, req), nil
		case modeDown:
			if _, err := c.await(); err != nil {
				return wire.Response{}, err
			}
			continue
		}
		if err := c.ensureSynced(t, live); err != nil {
			if isTransport(err) && c.opts.Reconnect {
				continue
			}
			return wire.Response{}, err
		}
		resp, err := c.rawCall(live, req)
		if err == nil {
			c.journalFor(t.resolved()).note(req.Type, core.Info(req.Info))
			return resp, nil
		}
		if !c.opts.Reconnect {
			return resp, err
		}
		if isTransport(err) {
			continue
		}
		var re *ReplyError
		if errors.As(err, &re) && wire.Retryable(re.Code) {
			if overload = c.retryReply(re.Code, overload); overload < 0 {
				return wire.Response{}, ErrClosed
			}
			continue
		}
		return resp, err
	}
}

// Target is a handle for one storage target's coordination domain: the
// same blocking call set as the Client, addressed at that target. Handles
// are cheap values; a client may hold one per target and drive them from
// different goroutines (each handle stays a one-goroutine object, like a
// Client).
type Target struct {
	c *Client
	// send is the wire Target field: "" lets the server resolve the
	// session default, keeping the default path byte-identical to the
	// pre-target protocol. The resolved name — used for the authorization
	// cache and trace capture — is computed per call, so a handle created
	// before RegisterOn still resolves the registered default.
	send string
}

// Target returns the handle for one storage target. An empty name means
// the session's default target.
func (c *Client) Target(name string) Target { return Target{c: c, send: name} }

// resolved is the target the server will route to: the explicit name, or
// the session's default.
func (t Target) resolved() string {
	if t.send == "" {
		return t.c.defTarget
	}
	return t.send
}

// Name returns the resolved target name.
func (t Target) Name() string { return t.resolved() }

// Register introduces the application to the daemon. It must be the first
// call; names must be unique among live sessions.
func (c *Client) Register(name string, cores int) error {
	return c.RegisterOn(name, cores, "")
}

// RegisterOn is Register with a default storage target: requests that do
// not name a target coordinate there. It must be the first call on the
// client (later calls read the default without synchronization).
//
// With Reconnect, the register carries incarnation 1 and every retry or
// resume bumps it, so the daemon can tell a resumed session from a name
// collision; in degraded mode registration succeeds locally and reaches
// the daemon when it comes back.
func (c *Client) RegisterOn(name string, cores int, target string) error {
	at := c.tnow()
	commit := func() {
		c.defTarget = target
		c.regMu.Lock()
		c.regName, c.regCores, c.registered = name, cores, true
		c.regMu.Unlock()
		c.traceReg.Store(true)
		c.rec(trace.Event{Type: trace.EvRegister, Time: at, App: name, Cores: int32(cores), Target: target})
	}
	overload := 0
	for {
		m, live, _, err := c.mode()
		switch m {
		case modeClosed, modeTerminal:
			return err
		case modeDegraded:
			// Fail-open before the daemon ever heard of us: the session runs
			// uncoordinated and registers (reporting the lapse) on recovery.
			commit()
			return nil
		case modeDown:
			if _, err := c.await(); err != nil {
				return err
			}
			continue
		}
		req := wire.Request{Type: wire.TypeRegister, App: name, Cores: cores, Target: target}
		if c.opts.Reconnect {
			c.regMu.Lock()
			c.incarnation++
			req.Incarnation = c.incarnation
			c.regMu.Unlock()
			req.SelfGrants, req.DegradedS = c.snapshotReport()
		}
		_, err = c.rawCall(live, req)
		if err == nil {
			if c.opts.Reconnect {
				c.markReported(req.SelfGrants, req.DegradedS)
			}
			commit()
			return nil
		}
		if !c.opts.Reconnect {
			return err
		}
		if isTransport(err) {
			// The register may have landed before the connection died; the
			// next attempt's higher incarnation resumes it either way.
			continue
		}
		var re *ReplyError
		if errors.As(err, &re) && wire.Retryable(re.Code) {
			if overload = c.retryReply(re.Code, overload); overload < 0 {
				return ErrClosed
			}
			continue
		}
		return err
	}
}

// Prepare stacks information about the upcoming I/O accesses on this
// target, as the paper's Prepare(MPI_Info) does.
func (t Target) Prepare(info core.Info) error {
	at := t.c.tnow()
	_, err := t.invoke(wire.Request{Type: wire.TypePrepare, Info: info, Target: t.send})
	if err == nil {
		t.c.rec(trace.Event{Type: trace.EvPrepare, Time: at, Info: info, Target: t.resolved()})
	}
	return err
}

// Complete unstacks the most recent Prepare.
func (t Target) Complete() error {
	at := t.c.tnow()
	_, err := t.invoke(wire.Request{Type: wire.TypeComplete, Target: t.send})
	if err == nil {
		t.c.rec(trace.Event{Type: trace.EvComplete, Time: at, Target: t.resolved()})
	}
	return err
}

// Inform announces the application's intent (or continued intent) to do
// I/O on this target. Non-blocking beyond the round trip; triggers the
// target's arbitration.
func (t Target) Inform() error {
	at := t.c.tnow()
	_, err := t.invoke(wire.Request{Type: wire.TypeInform, Target: t.send})
	if err == nil {
		t.c.rec(trace.Event{Type: trace.EvInform, Time: at, Target: t.resolved()})
	}
	return err
}

// Progress reports bytes moved so far. Like the simulator's state-free
// Coordinator.Progress it neither opens a phase nor triggers arbitration;
// the value influences the next inform/release arbitration.
func (t Target) Progress(bytesDone float64) error {
	at := t.c.tnow()
	_, err := t.invoke(wire.Request{Type: wire.TypeProgress, BytesDone: bytesDone, Target: t.send})
	if err == nil {
		t.c.rec(trace.Event{Type: trace.EvProgress, Time: at, Bytes: bytesDone, Target: t.resolved()})
	}
	return err
}

// Check polls authorization on this target with a round trip. It never
// blocks waiting for a grant. In degraded mode it reports true: a session
// coordinating with itself is always authorized.
func (t Target) Check() (bool, error) {
	at := t.c.tnow()
	resp, err := t.invoke(wire.Request{Type: wire.TypeCheck, Target: t.send})
	if err != nil {
		return false, err
	}
	t.c.rec(trace.Event{Type: trace.EvCheck, Time: at, Target: t.resolved()})
	return resp.Authorized, nil
}

// Authorized returns the cached authorization state for this target,
// updated by pushed grants/revocations — Check without the round trip.
func (t Target) Authorized() bool { return t.c.getAuth(t.resolved()) }

// Wait blocks until the daemon authorizes the application's access on this
// target (a Wait on another target from another goroutine is unaffected —
// the domains arbitrate independently). With a capture attached, the wait
// is recorded at send time and the observed grant at response time. In
// degraded mode Wait self-grants immediately (counted, reported on
// resume); with Reconnect a Wait lost to a connection drop is re-issued
// after the session resumes, so the grant is re-acquired, not lost.
func (t Target) Wait() error {
	t.c.rec(trace.Event{Type: trace.EvWait, Time: t.c.tnow(), Target: t.resolved()})
	_, err := t.invoke(wire.Request{Type: wire.TypeWait, Target: t.send})
	if err == nil {
		t.c.rec(trace.Event{Type: trace.EvGrant, Time: t.c.tnow(), Target: t.resolved()})
	}
	return err
}

// Release ends one step of the I/O access, reporting progress. A new
// Inform is required before the next access step.
func (t Target) Release(bytesDone float64) error {
	at := t.c.tnow()
	_, err := t.invoke(wire.Request{Type: wire.TypeRelease, BytesDone: bytesDone, Target: t.send})
	if err == nil {
		t.c.rec(trace.Event{Type: trace.EvRelease, Time: at, Bytes: bytesDone, Target: t.resolved()})
	}
	return err
}

// End terminates the I/O phase on this target entirely.
func (t Target) End() error {
	at := t.c.tnow()
	_, err := t.invoke(wire.Request{Type: wire.TypeEnd, Target: t.send})
	if err == nil {
		t.c.rec(trace.Event{Type: trace.EvEnd, Time: at, Target: t.resolved()})
	}
	return err
}

// Prepare stacks information about the upcoming I/O accesses on the
// default target, as the paper's Prepare(MPI_Info) does.
func (c *Client) Prepare(info core.Info) error { return c.Target("").Prepare(info) }

// Complete unstacks the most recent Prepare.
func (c *Client) Complete() error { return c.Target("").Complete() }

// Inform announces the application's intent (or continued intent) to do
// I/O. Non-blocking beyond the round trip; triggers arbitration.
func (c *Client) Inform() error { return c.Target("").Inform() }

// Progress reports bytes moved so far on the default target. Release and
// the Session helpers piggyback progress anyway, so an explicit Progress
// round trip is only needed between coordination points.
func (c *Client) Progress(bytesDone float64) error { return c.Target("").Progress(bytesDone) }

// Check polls authorization with a round trip. It never blocks waiting for
// a grant: an application free to reorganize its work can Check and do
// something else when denied.
func (c *Client) Check() (bool, error) { return c.Target("").Check() }

// Authorized returns the cached authorization state on the default target,
// updated by pushed grants/revocations — Check without the round trip.
func (c *Client) Authorized() bool { return c.getAuth(c.defTarget) }

// Wait blocks until the daemon authorizes the application's access. The
// response is deferred server-side until arbitration grants access. With a
// capture attached, the wait is recorded at send time — BEFORE the round
// trip, unlike the quick calls, because a deferred Wait can return seconds
// later and a post-hoc record would land after other clients' events and
// collapse the measured wait in replay — and the observed grant at
// response time. A failed Wait leaves a pending wait event in the trace;
// replay censors it, exactly like a session that vanished mid-wait.
func (c *Client) Wait() error { return c.Target("").Wait() }

// Release ends one step of the I/O access, reporting progress. A new
// Inform is required before the next access step.
func (c *Client) Release(bytesDone float64) error { return c.Target("").Release(bytesDone) }

// End terminates the I/O phase entirely.
func (c *Client) End() error { return c.Target("").End() }

// Stats fetches the daemon's live metrics snapshot. It cannot be
// self-served: in degraded mode it errors.
func (c *Client) Stats() (wire.Stats, error) {
	resp, err := c.call(wire.Request{Type: wire.TypeStats})
	if err != nil {
		return wire.Stats{}, err
	}
	if resp.Stats == nil {
		return wire.Stats{}, errors.New("client: stats response without payload")
	}
	return *resp.Stats, nil
}

// Session bundles the common call sequences a driver needs at its
// coordination points on one storage target, mirroring core.Session so the
// same driver shape runs against the simulator or the daemon.
type Session struct {
	C *Client
	t Target
}

// NewSession wraps a client, coordinating on its default target.
func NewSession(c *Client) *Session { return NewSessionOn(c, "") }

// NewSessionOn wraps a client, coordinating on the given storage target
// ("" = the session's default target).
func NewSessionOn(c *Client, target string) *Session {
	return &Session{C: c, t: c.Target(target)}
}

// Begin opens an I/O phase: Prepare + Inform + Wait.
func (s *Session) Begin(info core.Info) error {
	if err := s.t.Prepare(info); err != nil {
		return err
	}
	if err := s.t.Inform(); err != nil {
		return err
	}
	return s.t.Wait()
}

// Yield is a coordination point between atomic accesses: Release + Inform +
// Wait. If arbitration has revoked authorization, the call blocks until
// access is granted back.
func (s *Session) Yield(bytesDone float64) error {
	if err := s.t.Release(bytesDone); err != nil {
		return err
	}
	if err := s.t.Inform(); err != nil {
		return err
	}
	return s.t.Wait()
}

// End closes the phase: Release + Complete + End.
func (s *Session) End(bytesDone float64) error {
	if err := s.t.Release(bytesDone); err != nil {
		return err
	}
	if err := s.t.Complete(); err != nil {
		return err
	}
	return s.t.End()
}
