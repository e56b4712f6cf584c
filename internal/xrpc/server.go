package xrpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ReleasingHandler processes one raw request and returns its status, its
// response payload, and the response buffer's release — the one server-side
// contract; the DPU offload layer implements it directly.
//
// Ownership. payload is a slice of the connection's pooled request frame. It
// stays valid, and unchanged, until the response frame has been written, so
// the handler may read it for as long as it runs and may return a resp that
// aliases it (an echo); it must not keep it past its return in any other way.
// resp must stay valid and unchanged until release is called, which the
// server does exactly once, after the response frame is written (or has
// failed to be); a nil release means resp is not recycled.
type ReleasingHandler func(method string, payload []byte) (status uint16, resp []byte, release func())

// ServerHandler is the ReleasingHandler of a handler with nothing to release:
// the host baseline, the examples, any blocking handler that allocates (or
// aliases) its response.
type ServerHandler func(method string, payload []byte) (uint16, []byte)

// Releasing adapts h to the server's contract.
func (h ServerHandler) Releasing() ReleasingHandler {
	return func(method string, payload []byte) (uint16, []byte, func()) {
		status, resp := h(method, payload)
		return status, resp, nil
	}
}

// Copying adapts h to callers that keep the response (in-process callers,
// tests): a recycled response is copied out and released before returning.
func (h ReleasingHandler) Copying() ServerHandler {
	return func(method string, payload []byte) (uint16, []byte) {
		status, resp, release := h(method, payload)
		if release != nil {
			resp = append([]byte(nil), resp...)
			release()
		}
		return status, resp
	}
}

// Per-connection bounds. Constants: the ledger has one workload shape per
// value, none that wants another.
const (
	// maxConnConcurrency bounds in-flight handler invocations per connection
	// (pipelined requests are dispatched concurrently, as gRPC streams are).
	maxConnConcurrency = 1024
	// maxConnFrameBytes bounds the request-frame bytes one connection may
	// have in flight (read, or being read, and not yet released). At the
	// bound the reader stops reading — TCP backpressure — except that a frame
	// is always admitted when nothing else is in flight, so any legal frame
	// makes progress.
	maxConnFrameBytes = MaxFrameSize
	// connIdleTimeout closes a connection on which a whole interval of this
	// length passes with nothing in flight and nothing arriving (so between
	// one and two intervals after it went quiet).
	connIdleTimeout = 2 * time.Minute
)

// Server accepts xRPC connections.
type Server struct {
	handler     ReleasingHandler
	idleTimeout time.Duration // connIdleTimeout; a field so tests can shorten it

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	requests       atomic.Uint64
	workersSpawned atomic.Uint64
	bytesCapped    atomic.Uint64
	idleClosed     atomic.Uint64
	frameBytes     atomic.Int64
}

// ServerStats is a snapshot of a server's counters.
type ServerStats struct {
	Requests uint64 // handler invocations completed
	// WorkersSpawned counts handler goroutines started; on reused workers it
	// stays far below Requests.
	WorkersSpawned uint64
	// BytesCapped counts the times a connection's reader stopped reading
	// because of maxConnFrameBytes; IdleClosed counts connections closed by
	// the idle deadline.
	BytesCapped uint64
	IdleClosed  uint64
	// FrameBytesInFlight is the capacity of the request frames currently
	// owned by connections (being read, in a handler, or awaiting the
	// response write). It returns to 0 when every connection has wound down.
	FrameBytesInFlight int64
}

// NewServer returns a server dispatching to handler.
func NewServer(handler ServerHandler) *Server {
	return NewReleasingServer(handler.Releasing())
}

// NewReleasingServer returns a server dispatching to a handler that recycles
// its response buffers.
func NewReleasingServer(handler ReleasingHandler) *Server {
	return &Server{handler: handler, idleTimeout: connIdleTimeout, conns: make(map[net.Conn]struct{})}
}

// Requests returns the number of requests served.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:           s.requests.Load(),
		WorkersSpawned:     s.workersSpawned.Load(),
		BytesCapped:        s.bytesCapped.Load(),
		IdleClosed:         s.idleClosed.Load(),
		FrameBytesInFlight: s.frameBytes.Load(),
	}
}

// Serve accepts connections on ln until Close. It blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			// Accepted while Close was closing the others.
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops accepting and closes all connections. It does not wait for
// handlers still running; the last connection to wind down after Close
// asserts that every request frame was released (see connDone).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	drained := len(s.conns) == 0
	s.mu.Unlock()
	if drained {
		s.assertFramesReleased()
	}
}

// connDone retires one connection after its reader and every handler it
// dispatched have returned.
func (s *Server) connDone(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	drained := s.closed && len(s.conns) == 0
	s.mu.Unlock()
	if drained {
		s.assertFramesReleased()
	}
}

// assertFramesReleased runs once a closed server's last connection is gone:
// every frame must have been handed back by then. A frame still accounted is
// a bookkeeping bug of the kind that, with pooled buffers, otherwise shows up
// as another request's bytes — so it is loud.
func (s *Server) assertFramesReleased() {
	if n := s.frameBytes.Load(); n != 0 {
		panic(fmt.Sprintf("xrpc: %d request-frame bytes still in flight after the last connection closed", n))
	}
}

// request is one parsed frame on its way to a handler goroutine.
type request struct {
	method   string
	payload  []byte // slice of f.buf
	f        *frame
	streamID uint32
}

// worker is one reusable handler goroutine. Its mailbox holds at most the one
// request the reader mailed after taking the worker off the idle list.
type worker struct {
	mail chan request
	// writing, guarded by serverConn.mu, is set while the worker is listed
	// idle but still has its last response to write.
	writing bool
}

// serverConn is the server side of one connection: a reader goroutine
// (serve) that parses frames and hands each to a handler goroutine.
//
// Handler goroutines are reused: the reader takes the most recently parked
// one (LIFO: its stack and cache lines are the warm ones) and spawns a new
// one only when none is parked, so a goroutine's stack grows to the handler's
// depth once per worker instead of once per request, and a connection at
// depth 1 runs on exactly one of them. They are bounded by maxConnConcurrency
// and exit with the connection.
type serverConn struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader

	// wmu serializes response frames from concurrent handlers.
	wmu sync.Mutex
	fw  frameWriter

	mu         sync.Mutex
	capacity   sync.Cond // the reader waits here for handlers or bytes to drain
	idle       []*worker // listed workers, most recent last
	handlers   int       // requests dispatched whose frames are not yet released
	frameBytes int       // capacity of the frames acquired and not yet released

	// Reader-owned.
	workers []*worker // every worker spawned, for shutdown
	// active says that something has arrived — a frame header, more of a
	// header (partial is how much of one was buffered when the deadline last
	// fired) or more of a body — since the idle deadline was last armed.
	active  bool
	partial int

	wg sync.WaitGroup
}

func (s *Server) serveConn(conn net.Conn) {
	c := &serverConn{srv: s, conn: conn, br: bufio.NewReaderSize(conn, ioBufSize), fw: newFrameWriter(conn)}
	c.capacity.L = &c.mu
	if err := c.serve(); errors.Is(err, os.ErrDeadlineExceeded) {
		s.idleClosed.Add(1)
	}
	// Let dispatched handlers answer (the client may only have half-closed),
	// then wind the workers down.
	for _, w := range c.workers {
		close(w.mail)
	}
	c.wg.Wait()
	conn.Close()
	s.connDone(conn)
}

// serve is the reader loop; it returns why the connection ended: a transport
// error, a protocol violation, or the idle deadline.
func (c *serverConn) serve() error {
	// The idle read deadline is armed here and from then on only ever moved
	// by the reader itself when it fires (stillAlive): a request costs it one
	// store to a flag the reader owns, never a clock reading or a timer update.
	c.conn.SetReadDeadline(time.Now().Add(c.srv.idleTimeout))
	for {
		preface, err := c.br.Peek(len(Preface))
		if err == nil {
			if string(preface) != Preface {
				return ErrBadPreface
			}
			c.br.Discard(len(Preface))
			break
		}
		if !c.stillAlive(err) {
			return err
		}
	}
	for {
		ftype, streamID, n, err := readFrameHeader(c.br)
		if err != nil {
			// Nothing was consumed; what has arrived of the header waits in
			// the buffer, and if that has grown, something arrived.
			if got := c.br.Buffered(); got != c.partial {
				c.partial, c.active = got, true
			}
			if c.stillAlive(err) {
				continue
			}
			return err
		}
		if ftype != frameRequest || n < 2 {
			return ErrCorrupt
		}
		c.partial, c.active = 0, true
		f := c.acquire(n)
		body := f.buf[:n]
		for rest := body; ; {
			got, err := io.ReadFull(c.br, rest)
			if err == nil {
				break
			}
			// The deadline can fire at any moment of a body's arrival. A body
			// that is still growing is activity; one that has not grown for a
			// whole interval is a dead peer.
			rest = rest[got:]
			if got > 0 {
				c.active = true
			}
			if !c.stillAlive(err) {
				c.free(f, nil)
				return err
			}
		}
		mlen := int(binary.LittleEndian.Uint16(body[0:2]))
		if 2+mlen > n {
			c.free(f, nil)
			return ErrCorrupt
		}
		c.dispatch(request{
			method:   string(body[2 : 2+mlen]),
			payload:  body[2+mlen:],
			f:        f,
			streamID: streamID,
		})
	}
}

// stillAlive is asked about a failed read. It says yes when the error is the
// read deadline firing on a connection that is not idle — requests are in
// flight, or something arrived since the deadline was armed — and arms the
// next interval; the read is then retried. The deadline firing after a whole
// interval with nothing in flight and nothing arriving is the idle close.
func (c *serverConn) stillAlive(err error) bool {
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		return false
	}
	c.mu.Lock()
	busy := c.handlers > 0
	c.mu.Unlock()
	if !busy && !c.active {
		return false
	}
	c.active = false
	c.conn.SetReadDeadline(time.Now().Add(c.srv.idleTimeout))
	return true
}

// acquire takes a frame for an n-byte body, first waiting — not reading, so
// the client feels TCP backpressure — while the connection is at its handler
// or frame-byte bound.
func (c *serverConn) acquire(n int) *frame {
	_, size := frameClass(n)
	c.mu.Lock()
	for capped := false; c.handlers >= maxConnConcurrency ||
		(c.handlers > 0 && c.frameBytes+size > maxConnFrameBytes); c.capacity.Wait() {
		if !capped && c.handlers < maxConnConcurrency {
			capped = true
			c.srv.bytesCapped.Add(1)
		}
	}
	c.frameBytes += size
	c.mu.Unlock()
	c.srv.frameBytes.Add(int64(size))
	return getFrame(n)
}

// dispatch hands one request to a handler goroutine: the most recently
// listed one that has nothing left to write, or a new one when none is
// listed.
func (c *serverConn) dispatch(r request) {
	var w *worker
	c.mu.Lock()
	c.handlers++
	if n := len(c.idle); n > 0 {
		// Workers list themselves before writing their response, so the most
		// recent ones may still be inside a socket write, where a request
		// would wait: skip down to one that is parked. When every listed
		// worker is writing, take the one that started first.
		i := n - 1
		for i > 0 && c.idle[i].writing {
			i--
		}
		w = c.idle[i]
		c.idle = append(c.idle[:i], c.idle[i+1:]...)
	}
	c.mu.Unlock()
	if w == nil {
		w = &worker{mail: make(chan request, 1)}
		c.workers = append(c.workers, w)
		c.srv.workersSpawned.Add(1)
		c.wg.Add(1)
		go c.work(w)
	}
	w.mail <- r // never blocks: a worker is listed once per request it took
}

// work is a handler goroutine's loop.
func (c *serverConn) work(w *worker) {
	defer c.wg.Done()
	for r := range w.mail {
		status, resp, release := c.srv.handler(r.method, r.payload)
		c.srv.requests.Add(1)
		// List as idle before the response can reach the client, not after:
		// a client sends its next request only once it has seen this
		// response, so the reader always finds this worker and a connection
		// never runs on more workers than it has requests in flight. Until
		// the write is done the listing says so, and the reader prefers a
		// worker that is parked.
		c.mu.Lock()
		w.writing = true
		c.idle = append(c.idle, w)
		c.mu.Unlock()
		c.wmu.Lock()
		err := c.fw.writeFrame(frameResponse, r.streamID, status, "", resp)
		if errors.Is(err, ErrFrameSize) {
			// Unframeable response: the caller gets a status, not a hang.
			err = c.fw.writeFrame(frameResponse, r.streamID, StatusInternal, "", nil)
		}
		if err == nil {
			c.fw.bw.Flush()
		}
		c.wmu.Unlock()
		// resp may alias the request frame, so both outlive the write.
		if release != nil {
			release()
		}
		c.free(r.f, w)
	}
}

// free releases a frame and its share of the connection's bounds. w is the
// worker whose handler ran on it, which has nothing left to write now; nil
// when the frame never reached a handler.
func (c *serverConn) free(f *frame, w *worker) {
	size := len(f.buf)
	f.release()
	c.srv.frameBytes.Add(-int64(size))
	c.mu.Lock()
	c.frameBytes -= size
	if w != nil {
		c.handlers--
		w.writing = false
		c.capacity.Signal() // the reader, if it is waiting in acquire
	}
	c.mu.Unlock()
}
