package xrpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Handler serves one call. It must call call.Reply exactly once, from any
// goroutine, during or after its own run: the DPU offload layer scans the
// request, hands it to its poller and returns, and the poller replies. A
// handler that replies before returning must then return promptly: calls
// that arrive meanwhile may wait for its goroutine (see serverConn).
//
// Ownership. call.Payload is a slice of the connection's pooled request frame.
// It stays valid, and unchanged, until the response has been written, so
// whatever serves the call may read it until it replies and may reply with a
// resp that aliases it (an echo); nothing may read it after Reply in any other
// way. The Call itself is pooled per connection: it must not be touched after
// Reply either.
type Handler func(call *Call)

// ServerHandler is a blocking handler that returns its status and response
// payload, with nothing to release: the host baseline, the examples, any
// blocking handler that allocates (or aliases) its response. It runs on the
// server's handler goroutines through Async.
type ServerHandler func(method string, payload []byte) (uint16, []byte)

// Async adapts h to the call contract: it replies before it returns.
func (h ServerHandler) Async() Handler {
	return func(call *Call) {
		status, resp := h(call.Method, call.Payload)
		call.Reply(status, resp, nil)
	}
}

// Copying runs h in process and waits for its reply: the blocking adapter for
// in-process callers (tests, the harness, Stack.Handler). A recycled response
// is copied out and released before it returns, so the caller keeps it.
func (h Handler) Copying() ServerHandler {
	return func(method string, payload []byte) (uint16, []byte) {
		call := &Call{Method: method, Payload: payload, done: make(chan struct{})}
		h(call)
		<-call.done
		resp := call.resp
		if call.release != nil {
			resp = append([]byte(nil), resp...)
			call.release()
		}
		return call.status, resp
	}
}

// Call is one request on its way from a connection's reader, through a
// handler, to the connection's response writer.
type Call struct {
	Method  string
	Payload []byte // slice of the request frame; see Handler for how long it lives

	c        *serverConn
	f        *frame
	streamID uint32
	// w is the handler goroutine running the call, until the handler
	// returns. Guarded by c.mu.
	w     *worker
	start time.Time // when Begin ran (zero with no observer)

	status  uint16
	resp    []byte
	release func()

	done chan struct{} // Copying's in-process call only
}

// Reply answers the call: resp is framed and written by the connection's
// response writer, together with every other response ready by then, and
// release (nil when resp is not recycled) runs exactly once after that write
// (or after it has failed). resp must stay valid and unchanged until then.
// Reply never blocks on the socket; it is safe from any goroutine, and must be
// called exactly once per call.
func (call *Call) Reply(status uint16, resp []byte, release func()) {
	call.status, call.resp, call.release = status, resp, release
	c := call.c
	if c == nil {
		close(call.done)
		return
	}
	c.srv.requests.Add(1)
	c.mu.Lock()
	if w := call.w; w != nil {
		// The handler replied before returning (a blocking handler always
		// does): its goroutine is about to be free, so a call that arrives
		// meanwhile waits for it instead of starting another (dispatch).
		call.w = nil
		w.replied = true
		c.finishing++
	}
	c.ready = append(c.ready, call)
	wake := !c.writerAwake
	c.writerAwake = true
	c.mu.Unlock()
	if wake {
		c.wake <- struct{}{}
	}
}

// Observer watches a server's calls. Nil, the default, costs one pointer test
// per call and reads no clock.
type Observer interface {
	// Begin runs on the handler goroutine just before the handler.
	Begin(method string, reqBytes int)
	// Replied runs on the connection's response writer as the call's
	// response is framed, elapsed after its Begin.
	Replied(method string, reqBytes int, status uint16, respBytes int, elapsed time.Duration)
}

// Per-connection bounds. Constants: the ledger has one workload shape per
// value, none that wants another.
const (
	// maxConnConcurrency bounds the calls in flight per connection, from
	// dispatch until their response is written (pipelined requests are
	// dispatched concurrently, as gRPC streams are).
	maxConnConcurrency = 1024
	// maxConnFrameBytes bounds the request-frame bytes one connection may
	// have in flight (read, or being read, and not yet released). At the
	// bound the reader stops reading — TCP backpressure — except that a frame
	// is always admitted when nothing else is in flight, so any legal frame
	// makes progress.
	maxConnFrameBytes = MaxFrameSize
	// connIdleTimeout closes a connection on which a whole interval of this
	// length passes with nothing in flight, nothing answered and nothing
	// arriving (so between one and two intervals after it went quiet).
	connIdleTimeout = 2 * time.Minute
	// connWriteTimeout bounds each response write: a peer that has not
	// taken one write's worth of responses within half of this (at least) to
	// all of it has stopped reading, and loses its connection.
	connWriteTimeout = 30 * time.Second
	// maxInternedMethods bounds a connection's method-name table. A stream
	// of distinct names past it allocates each name, as without the table.
	maxInternedMethods = 64
)

// Server accepts xRPC connections.
type Server struct {
	handler      Handler
	observer     Observer
	idleTimeout  time.Duration // connIdleTimeout; a field so tests can shorten it
	writeTimeout time.Duration // connWriteTimeout; likewise

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	requests       atomic.Uint64
	flushes        atomic.Uint64
	workersSpawned atomic.Uint64
	bytesCapped    atomic.Uint64
	idleClosed     atomic.Uint64
	frameBytes     atomic.Int64
}

// ServerStats is a snapshot of a server's counters.
type ServerStats struct {
	Requests uint64 // calls replied to
	// ResponseFlushes counts the socket writes that carried responses; a
	// connection's writer makes one per batch of ready responses, so
	// Requests/ResponseFlushes is the responses per syscall.
	ResponseFlushes uint64
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

// NewServer returns a server dispatching to a blocking handler.
func NewServer(handler ServerHandler) *Server {
	return NewAsyncServer(handler.Async())
}

// NewAsyncServer returns a server dispatching to handler.
func NewAsyncServer(handler Handler) *Server {
	return &Server{handler: handler, idleTimeout: connIdleTimeout, writeTimeout: connWriteTimeout,
		conns: make(map[net.Conn]struct{})}
}

// SetObserver installs o (nil removes it). Call it before Serve.
func (s *Server) SetObserver(o Observer) { s.observer = o }

// Requests returns the number of requests served.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:           s.requests.Load(),
		ResponseFlushes:    s.flushes.Load(),
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

// connDone retires one connection after its reader, its handler goroutines
// and its writer have returned, every call it dispatched answered.
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

// worker is one reusable handler goroutine. Its mailbox holds at most the one
// call it was mailed when it was spawned or taken off the idle list.
type worker struct {
	mail chan *Call
	// replied, guarded by serverConn.mu, says that the call the worker is
	// running has been replied to (it counts in finishing).
	replied bool
}

// serverConn is the server side of one connection: a reader goroutine
// (serve) that parses frames and hands each call to a handler goroutine, and
// a response writer goroutine (write) that frames every reply ready by the
// time it wakes and writes them with one flush.
//
// Handler goroutines are reused. While one is about to be free — mailed and
// not yet running, or its handler has replied and not yet returned — a call
// waits in pending for it; otherwise the reader mails the call to the most
// recently listed one (LIFO: its stack and cache lines are the warm ones), or
// spawns one when none is listed. So at most one worker is ever woken and not
// yet running: a worker woken per call would queue behind the others and,
// on two cores, keep the DPU poller it wakes waiting for a core. A
// goroutine's stack grows to the handler's depth once per worker instead of
// once per request, a connection at depth 1 runs on exactly one of them, and
// a burst of calls to a handler that returns without waiting (the DPU's) runs
// on a few. A worker that starts a call while calls are pending and no other
// worker is about to be free wakes one more for them, so calls never wait
// behind handlers that block. Workers are bounded by maxConnConcurrency and
// exit with the connection.
type serverConn struct {
	srv  *Server
	conn net.Conn
	rd   frameReader

	mu          sync.Mutex
	capacity    sync.Cond // the reader (and wind-down) wait here for calls or bytes to drain
	idle        []*worker // listed workers, most recent last
	pending     []*Call   // calls waiting for a worker about to be free, from pendHead on
	pendHead    int
	starting    int       // workers mailed a call they have not yet taken
	finishing   int       // workers whose handler has replied and not yet returned
	workers     []*worker // every worker spawned, for shutdown
	handlers    int       // calls dispatched whose frames are not yet released
	frameBytes  int       // capacity of the frames acquired and not yet released
	free        []*Call   // the connection's pool of Call records
	ready       []*Call   // replied, waiting for the writer
	writerAwake bool      // the writer has been woken and has not yet found ready empty
	answered    bool      // a call was retired since the idle deadline was last armed

	// Writer-owned.
	fw    frameWriter
	wake  chan struct{} // one token per writerAwake false→true; closed at wind-down
	spare []*Call       // the ready slice's other half
	werr  error         // the first write error; later batches are only released

	// Reader-owned.
	methods map[string]string // interned method names, at most maxInternedMethods
	// active says that something has arrived — a frame header, more of a
	// header (partial is how much of one was buffered when the deadline last
	// fired) or more of a body — since the idle deadline was last armed.
	active  bool
	partial int

	wg sync.WaitGroup // workers and the writer
}

func (s *Server) serveConn(conn net.Conn) {
	c := &serverConn{srv: s, conn: conn, fw: newFrameWriter(conn),
		wake: make(chan struct{}, 1), methods: make(map[string]string)}
	c.rd.init(conn)
	c.fw.timeout, c.fw.writes = s.writeTimeout, &s.flushes
	c.capacity.L = &c.mu
	c.wg.Add(1)
	go c.write()
	if err := c.serve(); errors.Is(err, os.ErrDeadlineExceeded) {
		s.idleClosed.Add(1)
	}
	// Let dispatched calls be answered (the client may only have
	// half-closed), then wind the workers and the writer down. With nothing
	// in flight nothing is pending, so no worker spawns another.
	c.mu.Lock()
	for c.handlers > 0 {
		c.capacity.Wait()
	}
	for _, w := range c.workers {
		close(w.mail)
	}
	c.mu.Unlock()
	close(c.wake)
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
		preface, err := c.rd.br.Peek(len(Preface))
		if err == nil {
			if string(preface) != Preface {
				return ErrBadPreface
			}
			c.rd.br.Discard(len(Preface))
			break
		}
		if !c.stillAlive(err) {
			return err
		}
	}
	for {
		ftype, streamID, n, err := readFrameHeader(c.rd.br)
		if err != nil {
			// Nothing was consumed; what has arrived of the header waits in
			// the buffer, and if that has grown, something arrived.
			if got := c.rd.br.Buffered(); got != c.partial {
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
			got, err := c.rd.readBody(rest, n >= ioBufSize)
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
				c.dropFrame(f)
				return err
			}
		}
		mlen := int(binary.LittleEndian.Uint16(body[0:2]))
		if 2+mlen > n {
			c.dropFrame(f)
			return ErrCorrupt
		}
		c.dispatch(c.intern(body[2:2+mlen]), body[2+mlen:], f, streamID)
	}
}

// stillAlive is asked about a failed read. It says yes when the error is the
// read deadline firing on a connection that is not idle — requests are in
// flight, or one was answered or something arrived since the deadline was
// armed — and arms the next interval; the read is then retried. The deadline
// firing after a whole interval with nothing in flight and nothing arriving
// is the idle close.
func (c *serverConn) stillAlive(err error) bool {
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		return false
	}
	c.mu.Lock()
	busy := c.handlers > 0 || c.answered
	c.answered = false
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

// intern returns the method name b spells, from the connection's table when
// it is there (the lookup does not allocate) and adding it while the table
// has room.
func (c *serverConn) intern(b []byte) string {
	if m, ok := c.methods[string(b)]; ok {
		return m
	}
	m := string(b)
	if len(c.methods) < maxInternedMethods {
		c.methods[m] = m
	}
	return m
}

// dispatch hands one call to a handler goroutine: the one about to be free,
// if there is one, else the most recently listed one, else a new one.
func (c *serverConn) dispatch(method string, payload []byte, f *frame, streamID uint32) {
	c.mu.Lock()
	c.handlers++
	var call *Call
	if n := len(c.free); n > 0 {
		call = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		call = &Call{c: c}
	}
	call.Method, call.Payload, call.f, call.streamID = method, payload, f, streamID
	if c.starting > 0 || c.finishing > 0 {
		c.pending = append(c.pending, call)
	} else {
		c.start(call)
	}
	c.mu.Unlock()
}

// start hands call to the most recently listed worker, or to a new one when
// none is listed. c.mu is held.
func (c *serverConn) start(call *Call) {
	var w *worker
	if n := len(c.idle); n > 0 {
		w = c.idle[n-1]
		c.idle = c.idle[:n-1]
	} else {
		w = &worker{mail: make(chan *Call, 1)}
		c.workers = append(c.workers, w)
		c.srv.workersSpawned.Add(1)
		c.wg.Add(1)
		go c.work(w)
	}
	c.starting++
	w.mail <- call // never blocks: a worker is listed once per call it took
}

// work is a handler goroutine's loop.
func (c *serverConn) work(w *worker) {
	defer c.wg.Done()
	obs := c.srv.observer
	for call := range w.mail {
		c.mu.Lock()
		c.starting--
		for call != nil {
			call.w = w
			if c.pendHead < len(c.pending) && c.starting == 0 && c.finishing == 0 {
				// Calls are waiting and no worker is about to be free: this
				// handler may block, so start one for them.
				c.start(c.popPending())
			}
			c.mu.Unlock()
			if obs != nil {
				call.start = time.Now()
				obs.Begin(call.Method, len(call.Payload))
			}
			c.srv.handler(call)
			c.mu.Lock()
			if w.replied {
				w.replied = false
				c.finishing--
			} else {
				// Not replied yet, so call is still live.
				call.w = nil
			}
			call = c.popPending()
		}
		c.idle = append(c.idle, w)
		c.mu.Unlock()
	}
}

// popPending takes the oldest pending call, or nil. c.mu is held.
func (c *serverConn) popPending() *Call {
	if c.pendHead == len(c.pending) {
		return nil
	}
	call := c.pending[c.pendHead]
	c.pending[c.pendHead] = nil
	if c.pendHead++; c.pendHead == len(c.pending) {
		c.pending, c.pendHead = c.pending[:0], 0
	}
	return call
}

// write is the connection's response writer: each time it is woken it takes
// every reply ready by then, frames the batch, writes it with one flush, and
// only then releases the responses and frees the request frames (a response
// may alias its request). It sleeps once it finds nothing ready.
func (c *serverConn) write() {
	defer c.wg.Done()
	for range c.wake {
		for {
			c.mu.Lock()
			batch := c.ready
			if len(batch) == 0 {
				c.writerAwake = false
				c.mu.Unlock()
				break
			}
			c.ready = c.spare[:0]
			c.mu.Unlock()
			c.writeBatch(batch)
			c.spare = batch
		}
	}
}

// writeBatch writes one batch of replies, then retires it. After a write
// error (the deadline included) the connection is closed, so the reader stops,
// and later batches are retired without being written.
func (c *serverConn) writeBatch(batch []*Call) {
	obs := c.srv.observer
	broken := c.werr != nil
	for _, call := range batch {
		status := call.status
		if c.werr == nil {
			c.werr = c.fw.writeFrame(frameResponse, call.streamID, status, "", call.resp)
			if errors.Is(c.werr, ErrFrameSize) {
				// Unframeable response: the caller gets a status, not a hang.
				status = StatusInternal
				c.werr = c.fw.writeFrame(frameResponse, call.streamID, status, "", nil)
			}
		}
		if obs != nil {
			obs.Replied(call.Method, len(call.Payload), status, len(call.resp), time.Since(call.start))
		}
	}
	if c.werr == nil {
		c.werr = c.fw.flush()
	}
	if c.werr != nil && !broken {
		c.conn.Close()
	}
	size := 0
	for _, call := range batch {
		if call.release != nil {
			call.release()
		}
		size += len(call.f.buf)
		call.f.release()
		*call = Call{c: c}
	}
	c.srv.frameBytes.Add(-int64(size))
	c.mu.Lock()
	c.handlers -= len(batch)
	c.frameBytes -= size
	c.free = append(c.free, batch...)
	c.answered = true
	c.capacity.Signal() // the reader in acquire, or the wind-down
	c.mu.Unlock()
	clear(batch)
}

// dropFrame releases a frame that never reached a handler.
func (c *serverConn) dropFrame(f *frame) {
	size := len(f.buf)
	f.release()
	c.srv.frameBytes.Add(-int64(size))
	c.mu.Lock()
	c.frameBytes -= size
	c.mu.Unlock()
}
