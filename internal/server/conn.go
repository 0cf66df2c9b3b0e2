package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/wirebin"
)

// Connections. Every accepted connection is one conn: the negotiated
// framing, a stream table, one read loop and one group-commit write loop.
// Each stream is an ordinary *session to the control and shard goroutines.
// A v1 JSON or v2 binary connection carries one implicit stream (id 0),
// announced at accept; dropping its session closes the connection. A v3
// mux connection (wire.VersionBinaryMux) carries many streams, each named
// by a uvarint stream id in the frame prefix: the first frame naming an
// unknown id opens that stream as a fresh session (with its own register
// deadline), a frame for a dropped stream reopens it, and dropping a
// stream leaves the connection up. The write loop drains every response
// queued across all streams into the buffered writer and flushes once, so
// K concurrent grant cycles cost ~1 write syscall instead of K. The
// per-connection rate limiter and byte accounting cover the physical
// connection, which is what the syscall budget cares about.

// maxMuxStreams bounds one connection's stream table so a misbehaving
// client cannot grow daemon state without bound; crossing it drops the
// connection.
const maxMuxStreams = 1 << 16

// muxWriteBufferBytes sizes a mux connection's write buffer. Larger than
// the 4KiB default of a plain connection because one flush carries frames
// for many streams.
const muxWriteBufferBytes = 32 << 10

// outFrame is one queued response and the stream it belongs to; the write
// loop stamps the stream id at encode time.
type outFrame struct {
	stream uint64
	resp   wire.Response
}

// conn is the shared half of a connection: the response queue all its
// streams feed and the teardown latch. The stream table lives in
// readLoop's locals — only the reader touches it.
type conn struct {
	srv   *Server
	nc    net.Conn
	wr    io.Writer // nc, wrapped for byte accounting with metrics on
	codec wire.Codec
	mux   bool
	out   chan outFrame
	quit  chan struct{} // closed at teardown; the write loop drains and exits
	dead  atomic.Bool
	torn  atomic.Bool
}

// send enqueues one stream's response without ever blocking an arbitration
// goroutine: a client too slow to drain its socket is disconnected rather
// than allowed to stall arbitration for everyone else. With one write loop
// per connection there is no way to disconnect a single slow stream, and a
// client that cannot drain its socket has already lost every stream on it.
func (c *conn) send(stream uint64, r wire.Response) {
	if c.dead.Load() {
		return
	}
	select {
	case c.out <- outFrame{stream, r}:
	default:
		c.dead.Store(true)
		if c.srv.m != nil {
			c.srv.m.slowDisconnects.Inc()
		}
		c.nc.Close()
	}
}

// teardown ends the write loop (which closes the connection). Idempotent.
func (c *conn) teardown() {
	c.dead.Store(true)
	if c.torn.CompareAndSwap(false, true) {
		close(c.quit)
	}
}

func (srv *Server) startSession(nc net.Conn) {
	srv.wg.Add(1)
	go srv.serveConn(nc)
}

// serveConn owns a freshly accepted connection: it negotiates the framing
// first — under the handshake deadline, so a silent connection cannot park
// in negotiation forever — then starts the write loop and runs the read
// loop on this goroutine.
func (srv *Server) serveConn(nc net.Conn) {
	defer srv.wg.Done()
	var rd io.Reader = nc
	var wr io.Writer = nc
	if srv.m != nil {
		rd = countReader{nc, srv.m.bytesIn}
		wr = countWriter{nc, srv.m.bytesOut}
	}
	if d := srv.cfg.HandshakeTimeout; d > 0 {
		nc.SetReadDeadline(time.Now().Add(d))
	}
	br := bufio.NewReader(rd)
	codec, mux, err := srv.negotiate(br, wr)
	if err != nil {
		srv.handshakeTimedOut(err)
		nc.Close()
		return
	}
	if srv.cfg.HandshakeTimeout > 0 {
		nc.SetReadDeadline(time.Time{})
	}
	if srv.m != nil {
		srv.m.conns(codec.Name(), mux).Inc()
	}
	buf := srv.cfg.WriteBuffer
	if buf <= 0 {
		buf = 256
	}
	if mux {
		// One queue for every stream: scaled up so a grant storm across
		// thousands of streams is absorbed by batching rather than
		// tripping the overflow disconnect.
		buf *= 16
	}
	c := &conn{srv: srv, nc: nc, wr: wr, codec: codec, mux: mux,
		out: make(chan outFrame, buf), quit: make(chan struct{})}
	srv.wg.Add(1)
	go c.writeLoop()
	c.readLoop(br)
}

// handshakeTimedOut counts a read error that is the handshake deadline
// expiring; any other read error passes silently.
func (srv *Server) handshakeTimedOut(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		srv.countHandshakeTimeout()
	}
}

// countHandshakeTimeout counts and logs a connection dropped by its
// handshake deadline.
func (srv *Server) countHandshakeTimeout() {
	if srv.m != nil {
		srv.m.handshakeTimeouts.Inc()
	}
	srv.logf("calciomd: dropping unregistered connection: handshake timeout")
}

// negotiate sniffs the connection's first byte to pick its wire codec. A v1
// JSON client's first byte is always 0x00 (frame lengths are bounded far
// below 1<<24), so anything but wire.HelloMagic falls through to the JSON
// codec with the byte stream untouched. On a hello it consumes the two
// hello bytes, writes the two-byte ack echoing the accepted version (no
// write loop exists yet, so serveConn's goroutine owns the connection), and
// switches the connection to the negotiated codec before the first frame.
// The returned mux flag selects the session-multiplexed framing on top of
// the binary codec (wire.VersionBinaryMux).
func (srv *Server) negotiate(br *bufio.Reader, wr io.Writer) (wire.Codec, bool, error) {
	first, err := br.Peek(1)
	if err != nil {
		return nil, false, err
	}
	if first[0] != wire.HelloMagic {
		return wire.JSON, false, nil
	}
	var hello [2]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return nil, false, err
	}
	if hello[1] != wire.VersionBinary && hello[1] != wire.VersionBinaryMux {
		return nil, false, fmt.Errorf("unsupported codec version %d", hello[1])
	}
	if _, err := wr.Write(hello[:]); err != nil {
		return nil, false, err
	}
	return wirebin.Codec{}, hello[1] == wire.VersionBinaryMux, nil
}

// readLoop is the connection's one reader. It owns the stream table and
// feeds every decoded request to route (see there). On exit every stream
// is reported disconnected and the write loop is torn down.
func (c *conn) readLoop(br *bufio.Reader) {
	srv := c.srv
	streams := make(map[uint64]*session)
	defer func() {
		for _, s := range streams {
			select {
			case srv.reqCh <- envelope{kind: kindDisconnect, s: s}:
			case <-srv.stop:
			}
		}
		if c.mux && srv.m != nil {
			srv.m.muxStreams.Add(-int64(len(streams)))
		}
		c.teardown()
	}()
	read := c.requestReader(br)
	// A negotiated-but-silent mux connection has no streams yet, hence no
	// per-stream register deadline; keep the read deadline armed until the
	// first frame so it cannot park forever. A plain connection's stream
	// opens now, with its register deadline.
	deadline := c.mux && srv.cfg.HandshakeTimeout > 0
	if deadline {
		c.nc.SetReadDeadline(time.Now().Add(srv.cfg.HandshakeTimeout))
	} else if !c.mux && c.open(streams, 0) == nil {
		return
	}
	rl := srv.newRateLimiter()
	// One request buffer for the connection's life, zeroed per frame: the
	// decoders expect a zero request, and route copies it out.
	var req wire.Request
	for {
		req = wire.Request{}
		sid, err := read(&req)
		if err != nil {
			if deadline && len(streams) == 0 {
				srv.handshakeTimedOut(err)
			}
			return
		}
		if deadline {
			c.nc.SetReadDeadline(time.Time{})
			deadline = false
		}
		if req.Seq == 0 {
			return // reserved for pushes; a zero Seq is a client bug
		}
		s := streams[sid]
		if s != nil && c.mux && s.gone.Load() {
			// The stream was dropped (idle eviction, register deadline)
			// while the connection lived on; forget it so the frame reopens
			// the stream below. The client is expected to register again,
			// exactly as it would after a reconnect.
			delete(streams, sid)
			if srv.m != nil {
				srv.m.muxStreams.Add(-1)
			}
			s = nil
		}
		if s == nil {
			if s = c.open(streams, sid); s == nil {
				return
			}
		}
		admit, kill := rl.admit(srv, s, &req)
		if kill {
			return
		}
		if !admit {
			continue
		}
		if !srv.route(s, req) {
			return
		}
	}
}

// open announces stream sid as a fresh session. It returns nil when the
// connection must close: the stream bound is crossed, or the server is
// stopping.
func (c *conn) open(streams map[uint64]*session, sid uint64) *session {
	if len(streams) >= maxMuxStreams {
		c.srv.logf("calciomd: mux connection exceeded %d streams, dropping", maxMuxStreams)
		return nil
	}
	s := &session{c: c, stream: sid}
	if !c.srv.announce(s) {
		return nil
	}
	streams[sid] = s
	if c.mux && c.srv.m != nil {
		c.srv.m.muxStreams.Add(1)
	}
	return s
}

// requestReader returns the connection's frame decoder, yielding each
// request with its stream id (always 0 on a plain connection).
func (c *conn) requestReader(br *bufio.Reader) func(*wire.Request) (uint64, error) {
	if c.mux {
		return wirebin.NewMuxRequestReader(br).Read
	}
	dec := c.codec.NewRequestReader(br)
	return func(req *wire.Request) (uint64, error) { return 0, dec.Read(req) }
}

// responseEncoder returns the connection's frame encoder. It encodes into
// scratch, never onto the socket, so an unencodable response is told apart
// from a dead connection.
func (c *conn) responseEncoder() func(uint64, *wire.Response) ([]byte, error) {
	if c.mux {
		var scratch []byte
		return func(stream uint64, r *wire.Response) ([]byte, error) {
			b, err := wirebin.AppendMuxResponse(scratch[:0], stream, r)
			scratch = b
			return b, err
		}
	}
	var buf bytes.Buffer
	enc := c.codec.NewResponseWriter(&buf)
	return func(_ uint64, r *wire.Response) ([]byte, error) {
		buf.Reset()
		err := enc.Write(r)
		return buf.Bytes(), err
	}
}

// writeLoop is the connection's group-commit writer: each wakeup drains
// everything queued across all streams into the buffered writer and
// flushes once. A response that cannot be encoded — a Stats snapshot past
// wire.MaxFrame — is answered with a CodeProtocol error under the same
// Seq, so its caller fails instead of hanging; a write error is fatal to
// the connection.
func (c *conn) writeLoop() {
	srv := c.srv
	defer srv.wg.Done()
	defer c.nc.Close()
	size := 4096
	if c.mux {
		size = muxWriteBufferBytes
	}
	bw := bufio.NewWriterSize(c.wr, size)
	encode := c.responseEncoder()
	fail := func() {
		c.dead.Store(true)
		c.nc.Close()
	}
	// One frame buffer for the connection's life, like readLoop's request.
	var f outFrame
	write := func(f *outFrame) {
		frame, err := encode(f.stream, &f.resp)
		if err != nil {
			if f.resp.Seq == 0 {
				return // a push has no caller to answer
			}
			frame, err = encode(f.stream, &wire.Response{Seq: f.resp.Seq, Type: wire.TypeResp,
				Err: "server: cannot encode reply: " + err.Error(), Code: wire.CodeProtocol,
				Target: f.resp.Target})
			if err != nil {
				return
			}
		}
		if _, err := bw.Write(frame); err != nil {
			fail()
		}
	}
	// drain empties the queue without blocking and returns how many frames
	// joined the batch.
	drain := func(n int) int {
		for {
			select {
			case f = <-c.out:
				write(&f)
				n++
				continue
			default:
			}
			return n
		}
	}
	flush := func(n int) {
		if err := bw.Flush(); err != nil {
			fail()
		}
		if c.mux && n > 0 && srv.m != nil {
			srv.m.muxBatchFrames.Observe(float64(n))
		}
	}
	for {
		select {
		case f = <-c.out:
			write(&f)
			if c.mux {
				// The sending goroutine parked this one in the scheduler's
				// run-next slot; step behind the other runnable goroutines
				// so responses they are about to queue for other streams
				// join this flush instead of paying for their own. A plain
				// connection's one stream has no one to wait for.
				runtime.Gosched()
			}
			flush(drain(1))
		case <-c.quit:
			// Drain what the arbitration goroutines queued before teardown.
			flush(drain(0))
			return
		case <-srv.stop:
			// Shutdown: closing the connection unblocks the read loop,
			// whose exit path owns the per-stream disconnects.
			flush(drain(0))
			return
		}
	}
}

// countReader and countWriter sit between a connection and its buffered
// reader/writer, counting wire bytes into registry counters with one atomic
// add per syscall-level read or write.
type countReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.c.Add(uint64(n))
	}
	return n, err
}

type countWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.c.Add(uint64(n))
	}
	return n, err
}
