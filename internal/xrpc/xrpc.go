// Package xrpc is the "original RPC protocol" of the paper (its xRPC, the
// role gRPC plays in the evaluation): a compact unary-RPC protocol over TCP
// with gRPC-style full method names ("/package.Service/Method") and status
// codes.
//
// In the offloaded deployment the DPU terminates these connections
// (Sec. III-A: "the DPU acts now as the xRPC server ... the only
// configuration change is to modify the xRPC server address"), multiplexing
// many client connections onto few RPC-over-RDMA connections to the host.
// In the baseline deployment the host terminates them and runs
// deserialization itself.
//
// Wire format (little-endian), after the 5-byte connection preface "XRPC1":
//
//	frame  := u32 length ‖ u8 type ‖ u32 streamID ‖ body
//	request body  := u16 methodLen ‖ method ‖ payload
//	response body := u16 status ‖ payload
//
// Requests may be pipelined; responses may arrive out of order and are
// matched by streamID.
package xrpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Preface opens every connection.
const Preface = "XRPC1"

// Frame types.
const (
	frameRequest  = 1
	frameResponse = 2
)

// MaxFrameSize bounds a single frame (16 MiB, as in gRPC's default max
// message size ballpark).
const MaxFrameSize = 16 << 20

// Status codes (the gRPC subset used here).
const (
	StatusOK               uint16 = 0
	StatusInvalidArgument  uint16 = 3
	StatusDeadlineExceeded uint16 = 4
	StatusNotFound         uint16 = 5
	StatusUnimplemented    uint16 = 12
	StatusInternal         uint16 = 13
	StatusUnavailable      uint16 = 14
)

// StatusText renders a status code.
func StatusText(s uint16) string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusInvalidArgument:
		return "INVALID_ARGUMENT"
	case StatusDeadlineExceeded:
		return "DEADLINE_EXCEEDED"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusUnimplemented:
		return "UNIMPLEMENTED"
	case StatusInternal:
		return "INTERNAL"
	case StatusUnavailable:
		return "UNAVAILABLE"
	}
	return fmt.Sprintf("STATUS(%d)", s)
}

// Errors returned by the transport.
var (
	ErrBadPreface = errors.New("xrpc: bad connection preface")
	ErrFrameSize  = errors.New("xrpc: frame exceeds maximum size")
	ErrCorrupt    = errors.New("xrpc: corrupt frame")
	ErrClosed     = errors.New("xrpc: connection closed")
)

// ioBufSize is the read buffer on each side of a connection and the write
// buffer's capacity. A frame whose payload is at least this large is not
// copied into the write buffer (see frameWriter).
const ioBufSize = 64 << 10

// frameHeaderLen is the fixed part of a frame: length, type, stream ID.
const frameHeaderLen = 9

// frameWriter frames messages onto one connection; its owner serializes
// calls. Frames queue until flush, which hands everything queued to the
// socket as one net.Buffers writev: runs of buf, which holds headers and small
// payloads copied in place, and, between them, each payload of at least
// ioBufSize by reference behind its header blob — the HomeStore
// data_rpc_generator::serialize idiom (SNIPPETS.md 1). A queued large payload
// must therefore stay valid and unchanged until the next flush returns.
type frameWriter struct {
	conn net.Conn
	buf  []byte      // framed bytes since the last flush; cap ioBufSize unless one frame needed more
	cut  int         // buf[:cut] is already a segment in segs
	segs net.Buffers // the segments of the next write, in order
	vec  net.Buffers // what WriteTo consumes (kept here so taking its address allocates nothing)
	err  error       // sticky: the first write error

	// timeout > 0 keeps a write deadline between half of it and all of it
	// ahead of every write, so a peer that stops reading fails the write
	// instead of holding it forever. Re-arming is a clock reading per write
	// and a timer update only once per half interval (one costs ~0.5 µs).
	timeout time.Duration
	rearm   time.Time // when the armed deadline is half a timeout away
	// writes, when non-nil, counts the socket writes flush makes.
	writes *atomic.Uint64
}

func newFrameWriter(conn net.Conn) frameWriter {
	return frameWriter{conn: conn, buf: make([]byte, 0, ioBufSize)}
}

func appendFrameHeader(b []byte, bodyLen int, ftype uint8, streamID uint32, word uint16) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(bodyLen+5))
	b = append(b, ftype)
	b = binary.LittleEndian.AppendUint32(b, streamID)
	return binary.LittleEndian.AppendUint16(b, word)
}

// writeFrame queues one frame whose body is word ‖ method ‖ payload: a request
// (word = len(method)) or a response (word = status, no method). A frame that
// does not fit beside what buf already holds flushes it first. ErrFrameSize
// leaves the writer usable; any other error is the sticky write error.
func (w *frameWriter) writeFrame(ftype uint8, streamID uint32, word uint16, method string, payload []byte) error {
	body := 2 + len(method) + len(payload)
	if body+5 > MaxFrameSize {
		return ErrFrameSize
	}
	inline := len(payload) < ioBufSize
	n := frameHeaderLen + 2 + len(method)
	if inline {
		n += len(payload)
	}
	if len(w.buf) > 0 && len(w.buf)+n > cap(w.buf) {
		w.flush()
	}
	if w.err != nil {
		return w.err
	}
	w.buf = append(appendFrameHeader(w.buf, body, ftype, streamID, word), method...)
	if inline {
		w.buf = append(w.buf, payload...)
		return nil
	}
	w.segs = append(w.segs, w.buf[w.cut:], payload)
	w.cut = len(w.buf)
	return nil
}

// flush writes everything queued in one vectored write and drops the
// references to queued payloads.
func (w *frameWriter) flush() error {
	if w.cut < len(w.buf) {
		w.segs = append(w.segs, w.buf[w.cut:])
	}
	if len(w.segs) > 0 && w.err == nil {
		if w.timeout > 0 {
			if now := time.Now(); !now.Before(w.rearm) {
				w.conn.SetWriteDeadline(now.Add(w.timeout))
				w.rearm = now.Add(w.timeout / 2)
			}
		}
		w.vec = w.segs
		_, w.err = w.vec.WriteTo(w.conn)
		if w.writes != nil {
			w.writes.Add(1)
		}
	}
	clear(w.segs)
	w.segs, w.vec, w.buf, w.cut = w.segs[:0], nil, w.buf[:0], 0
	return w.err
}

// readFrameHeader consumes one frame header and returns the frame's type,
// stream ID and body length. The header is parsed in place in the read
// buffer.
func readFrameHeader(br *bufio.Reader) (ftype uint8, streamID uint32, bodyLen int, err error) {
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		return 0, 0, 0, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	ftype, streamID = hdr[4], binary.LittleEndian.Uint32(hdr[5:9])
	if length < 5 || length > MaxFrameSize {
		return 0, 0, 0, ErrFrameSize
	}
	br.Discard(frameHeaderLen)
	return ftype, streamID, int(length) - 5, nil
}

// Client is an xRPC client connection supporting pipelined asynchronous
// calls. It does not redial: the server closes a connection that has been
// idle — nothing in flight, nothing sent — for a whole connIdleTimeout, the
// protocol has no ping to keep one open, and every call after that fails; a
// caller that may sit quiet for minutes dials again when that happens.
type Client struct {
	conn net.Conn

	// wmu serializes writers and is held across socket writes; mu guards the
	// call table and is never held across one, so the reader goroutine can
	// always deliver responses — and so drain the server — while a writer is
	// blocked on a server that has stopped reading until responses drain.
	wmu sync.Mutex
	fw  frameWriter

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]func(status uint16, payload []byte, err error)
	closed  bool
	werr    error

	// Retry state (see retry.go): policy, the token-bucket budget level,
	// and the cumulative retry count.
	retry       RetryPolicy
	retryTokens float64
	retries     uint64

	// Hedging state (see retry.go): the cumulative hedge count and the ring
	// of recent successful-call latencies backing the trailing-p99 delay.
	hedges   uint64
	latRing  [hedgeLatencyWindow]int64
	latCount uint64

	// rbuf is the reader goroutine's response buffer, reused across frames.
	// It grows to the largest response up to the largest pooled frame class;
	// a bigger response is read into a buffer of its own and not kept.
	rbuf []byte

	readerDone chan struct{}
}

// Dial connects to an xRPC server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn)
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{
		conn:       conn,
		fw:         newFrameWriter(conn),
		pending:    map[uint32]func(uint16, []byte, error){},
		readerDone: make(chan struct{}),
	}
	c.fw.buf = append(c.fw.buf, Preface...)
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReaderSize(c.conn, ioBufSize)
	for {
		ftype, streamID, n, err := readFrameHeader(br)
		if err == nil && (ftype != frameResponse || n < 2) {
			err = ErrCorrupt
		}
		buf := c.rbuf
		if err == nil {
			if cap(buf) < n {
				buf = make([]byte, n)
				if n <= 1<<maxFrameBits {
					c.rbuf = buf
				}
			}
			_, err = io.ReadFull(br, buf[:n])
		}
		if err != nil {
			c.failAll(err)
			return
		}
		status := binary.LittleEndian.Uint16(buf[0:2])
		payload := buf[2:n]
		c.mu.Lock()
		cb := c.pending[streamID]
		delete(c.pending, streamID)
		c.mu.Unlock()
		if cb != nil {
			cb(status, payload, nil)
		}
	}
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	cbs := c.pending
	c.pending = map[uint32]func(uint16, []byte, error){}
	c.closed = true
	c.mu.Unlock()
	for _, cb := range cbs {
		cb(0, nil, err)
	}
}

// Go issues an asynchronous call; cb runs on the client's reader goroutine.
// The payload passed to cb aliases an internal buffer and must not be
// retained.
func (c *Client) Go(method string, payload []byte, cb func(status uint16, payload []byte, err error)) error {
	var id uint32
	return c.goWithID(method, payload, &id, cb)
}

// goWithID is Go, reporting the assigned stream ID through idOut (so
// CallTimeout can deregister on deadline).
func (c *Client) goWithID(method string, payload []byte, idOut *uint32, cb func(status uint16, payload []byte, err error)) error {
	if len(method) > 1<<16-1 {
		return ErrCorrupt
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.werr != nil {
		err := c.werr
		c.mu.Unlock()
		return err
	}
	// Stream IDs wrap at 2^32; after a wrap the next candidate may still be
	// held by a slow in-flight call, and silently overwriting its callback
	// would both leak that call and misdeliver its response. Skip in-use
	// IDs (the pending map is finite, so this terminates).
	id := c.nextID
	for {
		if _, inUse := c.pending[id]; !inUse {
			break
		}
		id++
	}
	c.nextID = id + 1
	*idOut = id
	c.pending[id] = cb
	c.mu.Unlock()
	err := c.fw.writeFrame(frameRequest, id, uint16(len(method)), method, payload)
	if err == nil && len(payload) >= ioBufSize {
		// The caller may reuse payload once Go returns: write it now.
		err = c.fw.flush()
	}
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.werr = err
		c.mu.Unlock()
	}
	return err
}

// Flush pushes buffered requests to the wire.
func (c *Client) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if err := c.fw.flush(); err != nil {
		c.mu.Lock()
		c.werr = err
		c.mu.Unlock()
		return err
	}
	return nil
}

// ErrTimeout is returned by CallTimeout when the deadline elapses first.
var ErrTimeout = errors.New("xrpc: call timed out")

// Call is a synchronous unary call.
func (c *Client) Call(method string, payload []byte) (uint16, []byte, error) {
	return c.CallTimeout(method, payload, 0)
}

// CallTimeout is Call with a deadline (0 means no deadline). On timeout the
// pending callback is deregistered; a late response is discarded.
func (c *Client) CallTimeout(method string, payload []byte, timeout time.Duration) (uint16, []byte, error) {
	type result struct {
		status  uint16
		payload []byte
		err     error
	}
	ch := make(chan result, 1)
	var id uint32
	err := c.goWithID(method, payload, &id, func(status uint16, p []byte, err error) {
		ch <- result{status, append([]byte(nil), p...), err}
	})
	if err != nil {
		return 0, nil, err
	}
	if err := c.Flush(); err != nil {
		return 0, nil, err
	}
	if timeout <= 0 {
		r := <-ch
		return r.status, r.payload, r.err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.status, r.payload, r.err
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return 0, nil, ErrTimeout
	}
}

// Pending returns the number of in-flight calls.
func (c *Client) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Close tears down the connection; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readerDone
	return err
}
