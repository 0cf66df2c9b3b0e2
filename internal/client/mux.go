package client

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/internal/wirebin"
)

// muxWriteBufferBytes sizes a mux connection's buffers: larger than a plain
// connection's 4KiB because one flush carries requests for many streams.
const muxWriteBufferBytes = 32 << 10

// resumeTimeout bounds how long a recovery waits for the streams of a
// fresh connection to resume before giving the connection up and
// redialing, so a daemon that accepts but never answers cannot hold the
// recovery (and fail-open) hostage.
const resumeTimeout = 5 * time.Second

// Mux is a daemon connection and the logical sessions (streams) riding it —
// the client's one connection machinery. DialMux returns a Mux shared by
// many sessions over the mux framing (protocol version
// wire.VersionBinaryMux): each Client() handle is a full Client — register,
// coordinate, reconnect/resume, fail open — but its frames ride the shared
// connection under a stream id instead of a socket of their own, so N
// sessions cost one descriptor, one reader goroutine, and (through
// group-committed writes) ~1 write syscall per burst of concurrent
// requests instead of N. DialOptions wraps a private Mux carrying one
// implicit stream over the v1 JSON or v2 binary framing.
//
// Writes group-commit on a mux connection: concurrent senders append to
// the shared buffered writer and a flusher commits the burst with one
// syscall. The daemon batches its responses the same way. A plain
// connection's one stream flushes each request at once.
//
// Connection failure is shared by construction: when the physical
// connection dies every stream's parked calls fail together, and (with
// Options.Reconnect) one redial resumes every registered stream — each
// re-registers under its own name with a bumped incarnation before its
// callers unpark. Options.FailOpen degrades every stream together on
// schedule.
type Mux struct {
	addr string
	opts Options // Codec resolved: wirebin under the mux framing
	mux  bool    // mux framing; otherwise one private implicit stream

	// mu guards the connection state machine and the stream table.
	mu         sync.Mutex
	conn       net.Conn
	gen        uint64
	healthy    bool
	closed     bool
	recovering bool  // a recoverLoop is running
	dead       error // terminal: the connection is gone and reconnect is off
	clients    map[uint64]*Client
	nextStream uint64

	// Write state: senders encode frames into bw under wmu. Under the mux
	// framing they then nudge flushCh, and the flusher goroutine — run once
	// a sender parks for its response — flushes everything buffered in
	// between with one syscall.
	wmu  sync.Mutex
	bw   *bufio.Writer // nil while down
	wgen uint64        // the connection generation bw writes to
	// Encode scratch: frames are encoded here, never onto the socket, so an
	// unencodable request is told apart from a dead connection. The mux
	// framing appends into scratch; a plain one runs enc into ebuf.
	scratch []byte
	ebuf    bytes.Buffer
	enc     wire.RequestWriter
	flushCh chan struct{}

	done chan struct{} // closed by shut
}

// DialMux connects one multiplexed physical connection. The codec is the v2
// binary wire format with the mux extension — Options.Codec is ignored. As
// with DialOptions, a failed initial dial is fatal unless both Reconnect
// and FailOpen are set, in which case the mux starts down and recovers (or
// degrades) in the background.
func DialMux(addr string, opts Options) (*Mux, error) { return connect(addr, opts, true) }

// connect builds a Mux and dials its first connection.
func connect(addr string, opts Options, mux bool) (*Mux, error) {
	if opts.BackoffMin <= 0 {
		opts.BackoffMin = DefaultBackoffMin
	}
	if opts.BackoffMax < opts.BackoffMin {
		opts.BackoffMax = DefaultBackoffMax
	}
	if mux {
		opts.Codec = wirebin.Codec{}
	} else if opts.Codec == nil {
		opts.Codec = wire.JSON
	}
	m := &Mux{
		addr:    addr,
		opts:    opts,
		mux:     mux,
		clients: make(map[uint64]*Client),
		flushCh: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	m.enc = opts.Codec.NewRequestWriter(&m.ebuf)
	// A plain connection's first dial has no bound of its own, so a full
	// accept backlog is ridden out by the kernel's SYN retries; the mux
	// dial and every redial give up after a second.
	timeout := time.Duration(0)
	if mux {
		timeout = time.Second
	}
	conn, err := m.dial(timeout)
	if err != nil && (!opts.Reconnect || opts.FailOpen <= 0) {
		return nil, err
	}
	if mux {
		go m.flusher()
	}
	if err != nil {
		m.recovering = true
		go m.recoverLoop()
	} else {
		m.adopt(conn)
	}
	return m, nil
}

// Client opens a new logical session on the mux. The handle is an ordinary
// *Client; Close it to drop the stream without touching the shared
// connection. Sessions created while the mux is down start down and unpark
// when the connection recovers.
func (m *Mux) Client() (*Client, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	m.nextStream++
	c := &Client{
		opts:    m.opts,
		mx:      m,
		stream:  m.nextStream,
		pending: make(map[uint64]*pendingCall),
		auth:    make(map[string]bool),
		journal: make(map[string]*tjournal),
		done:    make(chan struct{}),
	}
	switch {
	case m.dead != nil:
		c.termErr = m.dead
	case m.healthy:
		c.live = m.gen
	default:
		c.stateCh = make(chan struct{})
	}
	m.clients[c.stream] = c
	return c, nil
}

// Close tears the mux down: the shared connection closes and every stream's
// client closes with it.
func (m *Mux) Close() error {
	for _, c := range m.shut() {
		c.Close()
	}
	return nil
}

// shut closes the connection for good and stops recovery, returning the
// clients still attached. Idempotent.
func (m *Mux) shut() []*Client {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conn := m.conn
	clients := m.streams()
	m.mu.Unlock()
	close(m.done)
	if conn != nil {
		conn.Close()
	}
	return clients
}

// detach removes a closed or terminal client's stream from the table. A
// plain connection has no other stream and closes with it.
func (m *Mux) detach(c *Client) {
	m.mu.Lock()
	delete(m.clients, c.stream)
	m.mu.Unlock()
	if !m.mux {
		m.shut()
	}
}

// streams snapshots the stream table (caller holds mu).
func (m *Mux) streams() []*Client {
	clients := make([]*Client, 0, len(m.clients))
	for _, c := range m.clients {
		clients = append(clients, c)
	}
	return clients
}

// dial establishes one physical connection, giving up after timeout (0:
// no bound). The mux framing negotiates here — the two-byte hello, then
// the daemon's echoed ack — paying the round trip once per physical
// connection, amortized over every stream it will carry. A plain binary
// connection pipelines its hello instead (see adopt); a JSON connection
// has none.
func (m *Mux) dial(timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", m.addr, timeout)
	if err != nil || !m.mux {
		return conn, err
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello := [2]byte{wire.HelloMagic, wire.VersionBinaryMux}
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, err
	}
	var ack [2]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		conn.Close()
		return nil, err
	}
	if ack != hello {
		conn.Close()
		return nil, fmt.Errorf("client: bad mux negotiation ack %x", ack)
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// adopt installs a connection, starts its reader, and resumes every
// stream. Streams unpark one by one as their resume register lands (an
// unregistered stream unparks immediately), so callers never race their
// own re-registration. On a plain binary connection the two-byte hello is
// buffered here and flushed with the first request, so negotiation costs
// no round trip; the read loop strips the daemon's ack. adopt waits for
// the resumes, as a handshake would, and reports whether the connection
// survived them; one that stalls past resumeTimeout is given up.
func (m *Mux) adopt(conn net.Conn) bool {
	size := 4096
	if m.mux {
		size = muxWriteBufferBytes
	}
	expectAck := !m.mux && m.opts.Codec.Name() != "json"
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return false
	}
	m.conn = conn
	m.gen++
	gen := m.gen
	m.wmu.Lock()
	m.bw, m.wgen = bufio.NewWriterSize(conn, size), gen
	if expectAck {
		m.bw.Write([]byte{wire.HelloMagic, wire.VersionBinary})
	}
	m.wmu.Unlock()
	m.healthy = true
	clients := m.streams()
	m.mu.Unlock()
	go m.readLoop(conn, gen, size, expectAck)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.resume(c, gen)
		}()
	}
	resumed := make(chan struct{})
	go func() {
		wg.Wait()
		close(resumed)
	}()
	t := time.NewTimer(resumeTimeout)
	defer t.Stop()
	select {
	case <-resumed:
	case <-t.C:
		m.connLost(gen, errors.New("client: resume timed out"))
		<-resumed
	}
	// Recovery ends here only if the connection is still the live one; the
	// check and the flag flip share the lock so a loss right after is seen
	// by connLost, which then starts the next recovery.
	m.mu.Lock()
	defer m.mu.Unlock()
	ok := m.healthy && m.gen == gen
	if ok {
		m.recovering = false
	}
	return ok
}

// readLoop is the one reader of a connection: it demultiplexes response
// frames by stream id into each client's dispatch — the same
// single-writer arrival-order guarantee for every stream.
func (m *Mux) readLoop(conn net.Conn, gen uint64, size int, expectAck bool) {
	br := bufio.NewReaderSize(conn, size)
	var err error
	if expectAck {
		var ack [2]byte
		if _, err = io.ReadFull(br, ack[:]); err == nil && ack != [2]byte{wire.HelloMagic, wire.VersionBinary} {
			err = fmt.Errorf("client: bad codec negotiation ack %x", ack)
		}
	}
	read := m.responseReader(br)
	// One response buffer for the connection's life, zeroed per frame:
	// dispatch copies it out.
	var resp wire.Response
	for err == nil {
		resp = wire.Response{}
		var sid uint64
		if sid, err = read(&resp); err != nil {
			break
		}
		m.mu.Lock()
		c := m.clients[sid]
		m.mu.Unlock()
		if c != nil {
			c.dispatch(&resp)
		}
	}
	m.connLost(gen, err)
}

// responseReader returns the framing's response decoder, yielding each
// response with its stream id. A plain connection's frames belong to its
// implicit stream, the first and only one Client hands out there.
func (m *Mux) responseReader(br *bufio.Reader) func(*wire.Response) (uint64, error) {
	if m.mux {
		return wirebin.NewMuxResponseReader(br).Read
	}
	dec := m.opts.Codec.NewResponseReader(br)
	return func(resp *wire.Response) (uint64, error) { return 1, dec.Read(resp) }
}

// send encodes one stream's request into the write buffer of connection
// generation live and commits it; a request bound to a connection that is
// gone fails as a transport error. A plain connection flushes at once: its
// one stream has no one to share a flush with. A mux connection nudges the flusher instead (group commit):
// the flusher only runs once the sender has yielded (usually parking for
// its response), so every stream that sends in the meantime rides the same
// flush. A mux flush error is not reported here; the broken connection
// fails the read loop, which owns connection loss. Encode failures return
// as plain errors, transport failures as *transportError.
func (m *Mux) send(live, stream uint64, req *wire.Request) error {
	m.wmu.Lock()
	if m.bw == nil || m.wgen != live {
		m.wmu.Unlock()
		return &transportError{errors.New("client: send: connection lost")}
	}
	var frame []byte
	var err error
	if m.mux {
		frame, err = wirebin.AppendMuxRequest(m.scratch[:0], stream, req)
		m.scratch = frame
	} else {
		// The codec writer is an interface call, so it gets a copy: req
		// itself stays on the caller's stack.
		r := *req
		m.ebuf.Reset()
		err = m.enc.Write(&r)
		frame = m.ebuf.Bytes()
	}
	if err != nil {
		m.wmu.Unlock()
		return fmt.Errorf("client: send: %w", err)
	}
	_, err = m.bw.Write(frame)
	if err == nil && !m.mux {
		err = m.bw.Flush()
	}
	m.wmu.Unlock()
	if err != nil {
		return &transportError{fmt.Errorf("client: send: %w", err)}
	}
	if m.mux {
		select {
		case m.flushCh <- struct{}{}:
		default: // a flush is already scheduled; it will carry this frame
		}
	}
	return nil
}

// flusher is the mux write path's flush half, one per Mux for its
// lifetime: it wakes after a burst of sends and commits whatever they
// buffered. The channel holds at most one pending nudge — a flush commits
// everything buffered so far, so one scheduled flush covers any number of
// writers.
func (m *Mux) flusher() {
	for {
		select {
		case <-m.flushCh:
		case <-m.done:
			return
		}
		// The nudge parks the flusher in the scheduler's run-next slot, ahead
		// of every other runnable goroutine; step to the back of the queue so
		// streams that are ready to send get their frames into this flush
		// instead of each paying for their own.
		runtime.Gosched()
		m.wmu.Lock()
		if m.bw != nil {
			m.bw.Flush()
		}
		m.wmu.Unlock()
	}
}

// connLost handles the death of connection generation gen: every stream
// fails down together, then one recovery redials for all of them (or, with
// Reconnect off, the mux dies).
func (m *Mux) connLost(gen uint64, cause error) {
	m.mu.Lock()
	if m.closed || gen != m.gen || !m.healthy {
		m.mu.Unlock()
		return
	}
	m.healthy = false
	m.conn.Close()
	// A send from here on fails instead of buffering into the dead
	// connection: its call may have parked after the sweep below, and
	// nothing would ever complete it.
	m.wmu.Lock()
	m.bw = nil
	m.wmu.Unlock()
	reconnect := m.opts.Reconnect
	if !reconnect {
		m.dead = fmt.Errorf("client: connection lost: %w", cause)
	}
	clients := m.streams()
	spawn := reconnect && !m.recovering
	if spawn {
		m.recovering = true
	}
	m.mu.Unlock()
	for _, c := range clients {
		c.down(cause, reconnect)
	}
	if spawn {
		go m.recoverLoop()
	}
}

// kick hands the current connection to connection-loss handling (the
// daemon said it is draining): every stream is down when kick returns, and
// one recovery redials for all of them.
func (m *Mux) kick() {
	m.mu.Lock()
	gen := m.gen
	m.mu.Unlock()
	m.connLost(gen, errors.New("daemon draining"))
}

// recoverLoop redials with exponential backoff plus jitter until a
// connection is adopted and survives its streams' resumes, or the mux
// closes; a connection lost mid-resume is one more failed attempt, not a
// new recovery. Past the FailOpen deadline, measured from the loss, every
// stream degrades (new streams degrade on the next tick) while the loop
// keeps trying.
func (m *Mux) recoverLoop() {
	backoff := m.opts.BackoffMin
	var failAt time.Time
	if m.opts.FailOpen > 0 {
		failAt = time.Now().Add(m.opts.FailOpen)
	}
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return
		}
		clients := m.streams()
		m.mu.Unlock()
		if !failAt.IsZero() && time.Now().After(failAt) {
			for _, c := range clients {
				c.enterDegraded()
			}
		}
		conn, err := m.dial(time.Second)
		if err == nil && m.adopt(conn) {
			return
		}
		d := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		select {
		case <-time.After(d):
		case <-m.done:
			return
		}
		if backoff *= 2; backoff > m.opts.BackoffMax {
			backoff = m.opts.BackoffMax
		}
	}
}

// resume re-establishes one stream on a fresh connection: a registered
// client re-registers (same name, next incarnation, accumulated degraded
// report) before its callers unpark; an unregistered one unparks
// immediately. The register rides the stream's ordinary request path — the
// daemon opens a mux stream on its first frame. A busy or overloaded
// answer backs off and retries in place, draining cycles the connection,
// and any other rejection (another incarnation won the name) is terminal.
func (m *Mux) resume(c *Client, live uint64) {
	for attempt := 0; ; {
		c.regMu.Lock()
		registered := c.registered
		var req wire.Request
		if registered {
			c.incarnation++
			req = wire.Request{
				Type:        wire.TypeRegister,
				App:         c.regName,
				Cores:       c.regCores,
				Target:      c.defTarget,
				Incarnation: c.incarnation,
			}
		}
		c.regMu.Unlock()
		if !registered {
			c.up(live)
			return
		}
		req.SelfGrants, req.DegradedS = c.snapshotReport()
		_, err := c.rawCall(live, req)
		if err == nil {
			c.markReported(req.SelfGrants, req.DegradedS)
			c.up(live)
			return
		}
		var re *ReplyError
		if !errors.As(err, &re) {
			// Transport loss: the connection died again and its connLost
			// path owns the next recovery round. Leave the stream down.
			return
		}
		if !wire.Retryable(re.Code) {
			c.terminal(re)
			m.detach(c)
			return
		}
		if attempt = c.retryReply(re.Code, attempt); attempt < 0 || re.Code == wire.CodeDraining {
			return
		}
	}
}

// down fails one stream when its connection dies: parked calls fail
// (retryable), and the client parks down until its stream resumes
// (Reconnect) or dies (fail-fast).
func (c *Client) down(cause error, reconnect bool) {
	err := fmt.Errorf("client: connection lost: %w", cause)
	c.cmu.Lock()
	if c.closed {
		c.cmu.Unlock()
		return
	}
	c.live = 0
	if !reconnect {
		c.termErr = err
	} else if c.stateCh == nil {
		c.stateCh = make(chan struct{})
	}
	c.cmu.Unlock()
	c.failPending(reconnect, err)
	if !reconnect {
		c.finish()
	}
}

// up unparks one stream once it is live on connection generation live
// (resumed, when it was registered). Its journals, synced on an earlier
// generation, re-drive before their targets' next calls. A connection that
// died before its stream came up leaves the stream down: the check runs
// under the mux lock, which connLost holds while it marks the connection
// lost, so its sweep of the streams always runs after any up it let pass.
func (c *Client) up(live uint64) {
	m := c.mx
	m.mu.Lock()
	defer m.mu.Unlock()
	c.cmu.Lock()
	if c.closed || c.termErr != nil || !m.healthy || m.gen != live {
		c.cmu.Unlock()
		return
	}
	c.live = live
	if c.degraded {
		c.degraded = false
		c.endWindow()
	}
	st := c.stateCh
	c.stateCh = nil
	c.cmu.Unlock()
	if st != nil {
		close(st)
	}
}
