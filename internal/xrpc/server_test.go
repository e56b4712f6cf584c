package xrpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpurpc/internal/arena"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// closeAndCheckFrames closes the server and waits for every connection to
// wind down: the frame accounting must return to zero (and the server's own
// assertion must not have fired on the way).
func closeAndCheckFrames(t *testing.T, srv *Server) {
	t.Helper()
	srv.Close()
	waitFor(t, "connections to wind down", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 0
	})
	if n := srv.Stats().FrameBytesInFlight; n != 0 {
		t.Fatalf("%d frame bytes still in flight after close", n)
	}
}

func TestFrameClasses(t *testing.T) {
	for _, tc := range []struct{ n, class, size int }{
		{0, 0, 256}, {1, 0, 256}, {256, 0, 256}, {257, 1, 512}, {512, 1, 512},
		{65536, 8, 65536}, {65537, 9, 131072}, {1 << 20, 12, 1 << 20},
		{1<<20 + 1, -1, 1<<20 + 1}, {MaxFrameSize, -1, MaxFrameSize},
	} {
		class, size := frameClass(tc.n)
		if class != tc.class || size != tc.size {
			t.Errorf("frameClass(%d) = (%d, %d), want (%d, %d)", tc.n, class, size, tc.class, tc.size)
		}
		if f := getFrame(tc.n); len(f.buf) != tc.size || cap(f.buf) != tc.size || int(f.class) != tc.class {
			t.Errorf("getFrame(%d): len %d cap %d class %d", tc.n, len(f.buf), cap(f.buf), f.class)
		}
	}
}

func TestFramePoisonOnRelease(t *testing.T) {
	arena.SetPoisonOnRelease(true)
	defer arena.SetPoisonOnRelease(false)
	for _, n := range []int{100, 70000, 1<<20 + 5} {
		f := getFrame(n)
		buf := f.buf
		for i := range buf {
			buf[i] = 1
		}
		f.release()
		if !bytes.Equal(buf, bytes.Repeat([]byte{0xDB}, len(buf))) {
			t.Errorf("released %d-byte frame not poisoned", n)
		}
	}
}

// Dispatch pin (a): a connection at depth 1 runs on exactly one handler
// goroutine, however many calls it makes.
func TestWorkerReusedAtDepthOne(t *testing.T) {
	srv, addr := startServer(t, echo)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10000; i++ {
		if status, _, err := c.Call("/t.S/Echo", []byte("x")); err != nil || status != StatusOK {
			t.Fatalf("call %d: status %d, err %v", i, status, err)
		}
	}
	if st := srv.Stats(); st.WorkersSpawned != 1 || st.Requests != 10000 {
		t.Fatalf("10000 sequential calls: %d workers spawned, %d requests", st.WorkersSpawned, st.Requests)
	}
}

// rawRequest frames one request with an empty payload, for tests that drive
// a connection byte by byte.
func rawRequest(id uint32, method string) []byte {
	return append(appendFrameHeader(nil, 2+len(method), frameRequest, id, uint16(len(method))), method...)
}

// Handlers never write: while an 8 MiB response is stuck behind a client
// that reads nothing, the handler goroutine that produced it is free again,
// and the next request runs on it.
func TestWriterStuckHoldsNoWorker(t *testing.T) {
	ran := make(chan string, 4)
	big := make([]byte, 8<<20) // more than the socket buffers hold
	srv, addr := startServer(t, func(method string, payload []byte) (uint16, []byte) {
		ran <- method
		if method == "/t.S/Big" {
			return StatusOK, big
		}
		return StatusOK, nil
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(append([]byte(Preface), rawRequest(1, "/t.S/Big")...))
	if m := <-ran; m != "/t.S/Big" {
		t.Fatalf("first handler to run: %s", m)
	}
	time.Sleep(50 * time.Millisecond) // the writer is now blocked on the 8 MiB
	conn.Write(rawRequest(2, "/t.S/Small"))
	select {
	case m := <-ran:
		if m != "/t.S/Small" {
			t.Fatalf("second handler to run: %s", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the request waited behind the stuck response write")
	}
	if n := srv.Stats().WorkersSpawned; n != 1 {
		t.Errorf("%d workers spawned, want 1", n)
	}
}

// The writer batches: at depth 64 a flush carries more than one response.
func TestWriterBatchesFlushes(t *testing.T) {
	srv, addr := startServer(t, echo)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const depth, rounds = 64, 50
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < depth; i++ {
			wg.Add(1)
			if err := c.Go("/t.S/Echo", []byte("p"), func(uint16, []byte, error) { wg.Done() }); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
	st := srv.Stats()
	if st.Requests != depth*rounds || st.ResponseFlushes >= st.Requests {
		t.Fatalf("%d responses in %d flushes at depth %d", st.Requests, st.ResponseFlushes, depth)
	}
	t.Logf("%.1f responses per flush", float64(st.Requests)/float64(st.ResponseFlushes))
}

// A peer that stops reading loses its connection once a response write has
// waited out the write deadline; every call it had in flight is released,
// and another connection is served throughout.
func TestWriterDeadlineClosesNonReader(t *testing.T) {
	const deadline = 200 * time.Millisecond
	big := make([]byte, 8<<20)
	var released atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewAsyncServer(func(call *Call) {
		if call.Method == "/t.S/Big" {
			call.Reply(StatusOK, big, func() { released.Add(1) })
			return
		}
		call.Reply(StatusOK, call.Payload, nil)
	})
	srv.writeTimeout = deadline
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	// The second connection keeps calling for the whole test.
	good, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	stop := make(chan struct{})
	served := make(chan int, 1)
	go func() {
		n := 0
		defer func() { served <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			status, resp, err := good.CallTimeout("/t.S/Echo", []byte("alive"), 2*time.Second)
			if err != nil || status != StatusOK || string(resp) != "alive" {
				t.Errorf("the reading connection: status %d, %q, err %v", status, resp, err)
				return
			}
			n++
			time.Sleep(time.Millisecond)
		}
	}()

	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	const bigCalls = 4
	stream := []byte(Preface)
	for i := uint32(1); i <= bigCalls; i++ {
		stream = append(stream, rawRequest(i, "/t.S/Big")...)
	}
	start := time.Now()
	bad.Write(stream)
	waitFor(t, "the non-reading connection to be served", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 2
	})
	waitFor(t, "the non-reading connection to be closed", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 1
	})
	if elapsed := time.Since(start); elapsed < deadline/2 {
		t.Errorf("closed after %v, before half the %v write deadline", elapsed, deadline)
	}
	if n := released.Load(); n != bigCalls {
		t.Errorf("%d of %d stuck responses released", n, bigCalls)
	}
	close(stop)
	if n := <-served; n == 0 {
		t.Error("the reading connection was not served")
	}
	good.Close()
	closeAndCheckFrames(t, srv)
}

// Dispatch pin (a), continued: pipelining 64 deep spawns at most 64 workers,
// and they are gone once the connection closes.
func TestWorkerSpawnBoundedByDepth(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, addr := startServer(t, func(method string, payload []byte) (uint16, []byte) {
		runtime.Gosched()
		return StatusOK, payload
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const depth, rounds = 64, 50
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < depth; i++ {
			wg.Add(1)
			if err := c.Go("/t.S/Echo", []byte("p"), func(uint16, []byte, error) { wg.Done() }); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
	st := srv.Stats()
	if st.WorkersSpawned > depth || st.Requests != depth*rounds {
		t.Fatalf("%d workers spawned for depth %d (%d requests)", st.WorkersSpawned, depth, st.Requests)
	}
	c.Close()
	closeAndCheckFrames(t, srv)
	waitFor(t, "parked workers to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// Dispatch pin (c): maxConnConcurrency still bounds the handlers one
// connection has in flight; requests beyond it wait unread.
func TestWorkerConcurrencyBound(t *testing.T) {
	var cur, peak atomic.Int64
	gate := make(chan struct{})
	srv, addr := startServer(t, func(method string, payload []byte) (uint16, []byte) {
		v := cur.Add(1)
		for {
			p := peak.Load()
			if v <= p || peak.CompareAndSwap(p, v) {
				break
			}
		}
		<-gate
		cur.Add(-1)
		return StatusOK, nil
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const total = maxConnConcurrency + 40
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		if err := c.Go("/t.S/Block", nil, func(uint16, []byte, error) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the connection to fill", func() bool { return cur.Load() == maxConnConcurrency })
	close(gate)
	wg.Wait()
	if peak.Load() != maxConnConcurrency {
		t.Fatalf("peak in-flight handlers = %d, want %d", peak.Load(), maxConnConcurrency)
	}
	if n := srv.Stats().WorkersSpawned; n > maxConnConcurrency {
		t.Fatalf("%d workers spawned", n)
	}
}

// The in-flight frame-byte cap: with 9 MiB requests the second frame does
// not fit beside the first, so the reader stops until the first is released;
// everything still arrives, byte-identical.
func TestFrameBytesCapBackpressure(t *testing.T) {
	gate := make(chan struct{})
	srv, addr := startServer(t, func(method string, payload []byte) (uint16, []byte) {
		<-gate
		return StatusOK, payload
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n, size = 3, 9 << 20
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var wg sync.WaitGroup
	var good atomic.Int32
	sent := make(chan error, 1)
	go func() {
		// Blocks once the server stops reading: run it beside the test.
		for i := 0; i < n; i++ {
			wg.Add(1)
			if err := c.Go("/t.S/Big", payload, func(status uint16, p []byte, err error) {
				if err == nil && status == StatusOK && bytes.Equal(p, payload) {
					good.Add(1)
				}
				wg.Done()
			}); err != nil {
				wg.Done()
				sent <- err
				return
			}
		}
		sent <- c.Flush()
	}()
	waitFor(t, "the reader to stop at the cap", func() bool { return srv.Stats().BytesCapped >= 1 })
	if got := srv.Stats().FrameBytesInFlight; got != int64(size+2+len("/t.S/Big")) {
		t.Errorf("capped with %d frame bytes in flight, want one %d-byte frame", got, size)
	}
	close(gate)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if good.Load() != n {
		t.Fatalf("%d/%d capped echoes came back intact", good.Load(), n)
	}
	c.Close()
	closeAndCheckFrames(t, srv)
}

// startIdleServer is startServer with the idle deadline shortened.
func startIdleServer(t *testing.T, idle time.Duration, h ServerHandler) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h)
	srv.idleTimeout = idle
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

func TestIdleConnectionClosed(t *testing.T) {
	const idle = 250 * time.Millisecond
	gate := make(chan struct{})
	srv, addr := startIdleServer(t, idle, func(method string, payload []byte) (uint16, []byte) {
		if method == "/t.S/Slow" {
			<-gate
		}
		return StatusOK, payload
	})

	// A connection that never gets past its preface is closed.
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	waitFor(t, "the silent connection to be closed", func() bool { return srv.Stats().IdleClosed == 1 })

	// A connection with a request in flight is not idle, however long the
	// handler takes; one with steady depth-1 traffic is not either.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	if err := c.Go("/t.S/Slow", nil, func(_ uint16, _ []byte, err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	time.Sleep(3 * idle)
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("request in flight for 3x the idle timeout: %v", err)
	}
	for end := time.Now().Add(3 * idle); time.Now().Before(end); {
		if _, _, err := c.Call("/t.S/Echo", []byte("k")); err != nil {
			t.Fatalf("steady traffic: %v", err)
		}
		time.Sleep(idle / 10)
	}
	if n := srv.Stats().IdleClosed; n != 1 {
		t.Fatalf("idle closes = %d while the connection was busy", n)
	}
	// Once it does go quiet — the last response written, nothing more sent —
	// it is closed too.
	waitFor(t, "the quiet connection to be closed", func() bool { return srv.Stats().IdleClosed == 2 })
	if _, _, err := c.Call("/t.S/Echo", nil); err == nil {
		t.Error("call on an idle-closed connection succeeded")
	}
}

// The lazily armed deadline can fire while a body is arriving. A body that
// keeps growing is not an idle connection, however slowly it grows; one that
// stops growing for a whole interval is.
func TestIdleDeadlineMidBody(t *testing.T) {
	const idle = 200 * time.Millisecond
	srv, addr := startIdleServer(t, idle, echo)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const method = "/t.S/Echo"
	payload := bytes.Repeat([]byte{7}, 40)
	frame := append(append(appendFrameHeader(nil, 2+len(method)+len(payload), frameRequest, 3, uint16(len(method))), method...), payload...)
	// Sit idle for most of an interval, so the deadline is about to fire, then
	// send the frame a few bytes at a time over four more intervals.
	conn.Write([]byte(Preface))
	time.Sleep(idle * 3 / 4)
	const chunks = 16
	for i := 0; i < chunks; i++ {
		conn.Write(frame[i*len(frame)/chunks : (i+1)*len(frame)/chunks])
		time.Sleep(idle / 4)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp := make([]byte, frameHeaderLen+2+len(payload))
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatalf("slow body was cut: %v (idle closes: %d)", err, srv.Stats().IdleClosed)
	}
	if !bytes.Equal(resp[frameHeaderLen+2:], payload) {
		t.Fatalf("echo of the slow body damaged: %x", resp)
	}
	// Now half a frame and then silence: closed, and the frame handed back.
	conn.Write(frame[:len(frame)/2])
	waitFor(t, "the stalled connection to be closed", func() bool { return srv.Stats().IdleClosed == 1 })
	closeAndCheckFrames(t, srv)
}

// Frames are handed back on every way a connection can end: a truncated
// body, a method length past the body, a client that vanishes with requests
// in flight.
func TestFrameReleasedOnEveryExit(t *testing.T) {
	srv, addr := startServer(t, func(method string, payload []byte) (uint16, []byte) {
		time.Sleep(time.Millisecond)
		return StatusOK, payload
	})
	raw := func(frames ...[]byte) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte(Preface))
		for _, f := range frames {
			conn.Write(f)
		}
		conn.Close()
	}
	request := func(method string, payload []byte) []byte {
		b := appendFrameHeader(nil, 2+len(method)+len(payload), frameRequest, 7, uint16(len(method)))
		return append(append(b, method...), payload...)
	}
	good := request("/t.S/E", bytes.Repeat([]byte{1}, 3000))
	raw(good, good[:len(good)-100])                                     // truncated body
	raw(good, append(appendFrameHeader(nil, 3, frameRequest, 7, 9), 1)) // method length past the body
	raw(good, good, good)                                               // gone with requests in flight
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Go("/t.S/E", []byte("abandoned"), func(uint16, []byte, error) {})
	}
	c.Flush()
	c.Close()
	closeAndCheckFrames(t, srv)
}

// Payloads on either side of the vectored-write threshold, interleaved with
// small frames on one pipelined connection, arrive whole and in their own
// responses.
func TestFrameVectoredWriteBoundaries(t *testing.T) {
	// The echo handler's response is the request frame itself: poisoning
	// shows a frame recycled before its response was written.
	arena.SetPoisonOnRelease(true)
	defer arena.SetPoisonOnRelease(false)
	_, addr := startServer(t, echo)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sizes := []int{1, ioBufSize - 1, 7, ioBufSize, ioBufSize + 1, 0, 3 * ioBufSize, 100}
	var wg sync.WaitGroup
	var bad atomic.Int32
	for round := 0; round < 4; round++ {
		for i, n := range sizes {
			payload := bytes.Repeat([]byte{byte(i + 1)}, n)
			wg.Add(1)
			if err := c.Go(fmt.Sprintf("/t.S/M%d", i), payload, func(status uint16, p []byte, err error) {
				if err != nil || status != StatusOK || !bytes.Equal(p, payload) {
					bad.Add(1)
				}
				wg.Done()
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d responses damaged", bad.Load())
	}
}

// A response that cannot be framed becomes a status, not a silent hang.
func TestOversizedResponseIsInternal(t *testing.T) {
	big := make([]byte, MaxFrameSize)
	_, addr := startServer(t, func(method string, payload []byte) (uint16, []byte) {
		return StatusOK, big
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	status, resp, err := c.CallTimeout("/t.S/Big", nil, 5*time.Second)
	if err != nil || status != StatusInternal || len(resp) != 0 {
		t.Fatalf("oversized response: status %d, %d bytes, err %v", status, len(resp), err)
	}
}

// The releasing contract: release runs exactly once per request, after the
// response has been written — the client has the bytes before the buffer is
// recycled — and also when the write fails.
func TestReleaseCalledOncePerRequest(t *testing.T) {
	arena.SetPoisonOnRelease(true)
	defer arena.SetPoisonOnRelease(false)
	var released atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewAsyncServer(func(call *Call) {
		resp := append([]byte("re:"), call.Payload...)
		call.Reply(StatusOK, resp, func() {
			arena.PoisonReleased(resp)
			released.Add(1)
		})
	})
	go srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	var bad atomic.Int32
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 1+i*400)
		wg.Add(1)
		c.Go("/t.S/R", payload, func(status uint16, p []byte, err error) {
			if err != nil || !bytes.Equal(p, append([]byte("re:"), payload...)) {
				bad.Add(1)
			}
			wg.Done()
		})
	}
	c.Flush()
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d responses recycled before they were written", bad.Load())
	}
	waitFor(t, "every response buffer to be released", func() bool { return released.Load() == n })
	// Now requests whose responses cannot be written.
	for i := 0; i < 50; i++ {
		c.Go("/t.S/R", []byte("gone"), func(uint16, []byte, error) {})
	}
	c.Flush()
	c.Close()
	closeAndCheckFrames(t, srv)
	if got, want := released.Load(), int64(srv.Stats().Requests); got != want {
		t.Fatalf("%d releases for %d handled requests", got, want)
	}
}

func TestReadFrameHeaderRejectsBadLengths(t *testing.T) {
	for _, length := range []uint32{0, 4, MaxFrameSize + 1, 1 << 31} {
		a, b := net.Pipe()
		go func() {
			var hdr [frameHeaderLen]byte
			binary.LittleEndian.PutUint32(hdr[:], length)
			a.Write(hdr[:])
			a.Close()
		}()
		if _, _, _, err := readFrameHeader(bufio.NewReader(b)); err != ErrFrameSize {
			t.Errorf("length %d: err = %v, want ErrFrameSize", length, err)
		}
		b.Close()
	}
}
