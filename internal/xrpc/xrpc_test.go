package xrpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startServer runs a server with the given handler on a loopback listener.
func startServer(t *testing.T, h ServerHandler) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h)
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

func echo(method string, payload []byte) (uint16, []byte) {
	return StatusOK, payload
}

func TestSynchronousCall(t *testing.T) {
	srv, addr := startServer(t, echo)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	status, resp, err := c.Call("/t.S/Echo", []byte("hello"))
	if err != nil || status != StatusOK || string(resp) != "hello" {
		t.Fatalf("call: %d %q %v", status, resp, err)
	}
	if srv.Requests() != 1 {
		t.Error("request not counted")
	}
}

func TestPipelinedCalls(t *testing.T) {
	_, addr := startServer(t, echo)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 500
	var wg sync.WaitGroup
	var ok atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		payload := []byte(fmt.Sprintf("msg-%d", i))
		want := string(payload)
		if err := c.Go("/t.S/Echo", payload, func(status uint16, p []byte, err error) {
			defer wg.Done()
			if err == nil && status == StatusOK && string(p) == want {
				ok.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if ok.Load() != n {
		t.Fatalf("only %d/%d pipelined calls succeeded", ok.Load(), n)
	}
	if c.Pending() != 0 {
		t.Error("pending calls remain")
	}
}

func TestLargePayload(t *testing.T) {
	_, addr := startServer(t, echo)
	c, _ := Dial(addr)
	defer c.Close()
	payload := bytes.Repeat([]byte{0xab}, 1<<20)
	status, resp, err := c.Call("/t.S/Big", payload)
	if err != nil || status != StatusOK || !bytes.Equal(resp, payload) {
		t.Fatalf("large call failed: %v (status %d, %d bytes)", err, status, len(resp))
	}
}

// The client's read buffer is reused for responses up to the largest pooled
// frame class and never grows past it: one 4 MiB response must not pin
// 4 MiB for the rest of the connection's life.
func TestClientReadBufferBounded(t *testing.T) {
	_, addr := startServer(t, echo)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{100 << 10, 4 << 20, 10, 1000} {
		payload := bytes.Repeat([]byte{byte(n)}, n)
		status, resp, err := c.Call("/t.S/Echo", payload)
		if err != nil || status != StatusOK || !bytes.Equal(resp, payload) {
			t.Fatalf("%d-byte echo: status %d, %d bytes back, err %v", n, status, len(resp), err)
		}
	}
	c.Close() // the reader goroutine has exited: rbuf is safe to read
	if got := cap(c.rbuf); got > 1<<maxFrameBits || got < 100<<10 {
		t.Fatalf("read buffer capacity %d after a 4 MiB response, want the 100 KiB one kept and at most %d", got, 1<<maxFrameBits)
	}
}

func TestStatusCodesPropagate(t *testing.T) {
	_, addr := startServer(t, func(method string, payload []byte) (uint16, []byte) {
		return StatusNotFound, []byte("missing")
	})
	c, _ := Dial(addr)
	defer c.Close()
	status, resp, err := c.Call("/t.S/Get", nil)
	if err != nil || status != StatusNotFound || string(resp) != "missing" {
		t.Fatalf("status: %d %q %v", status, resp, err)
	}
}

func TestMethodNameRouting(t *testing.T) {
	_, addr := startServer(t, func(method string, payload []byte) (uint16, []byte) {
		return StatusOK, []byte(method)
	})
	c, _ := Dial(addr)
	defer c.Close()
	for _, m := range []string{"/a.B/C", "/pkg.Service/LongMethodName", "/x/y"} {
		_, resp, err := c.Call(m, nil)
		if err != nil || string(resp) != m {
			t.Errorf("method %q: got %q, %v", m, resp, err)
		}
	}
}

func TestBadPrefaceDropsConnection(t *testing.T) {
	_, addr := startServer(t, echo)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("BOGUS"))
	conn.SetReadDeadline(time.Now().Add(time.Second))
	var buf [1]byte
	if _, err := conn.Read(buf[:]); err == nil {
		t.Error("server kept talking after bad preface")
	}
}

func TestServerCloseFailsInflight(t *testing.T) {
	block := make(chan struct{})
	srv, addr := startServer(t, func(method string, payload []byte) (uint16, []byte) {
		<-block
		return StatusOK, nil
	})
	c, _ := Dial(addr)
	defer c.Close()
	errCh := make(chan error, 1)
	c.Go("/t.S/Hang", nil, func(_ uint16, _ []byte, err error) { errCh <- err })
	c.Flush()
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	close(block)
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("in-flight call succeeded after server close")
		}
	case <-time.After(2 * time.Second):
		t.Error("in-flight call never failed")
	}
}

func TestClientCloseRejectsNewCalls(t *testing.T) {
	_, addr := startServer(t, echo)
	c, _ := Dial(addr)
	c.Close()
	if err := c.Go("/t.S/X", nil, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Go after close: %v", err)
	}
	if err := c.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after close: %v", err)
	}
}

func TestManyConnections(t *testing.T) {
	srv, addr := startServer(t, echo)
	const conns = 16
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 50; j++ {
				payload := []byte(fmt.Sprintf("%d-%d", i, j))
				_, resp, err := c.Call("/t.S/Echo", payload)
				if err != nil || !bytes.Equal(resp, payload) {
					t.Errorf("conn %d call %d failed: %v", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if srv.Requests() != conns*50 {
		t.Errorf("requests = %d", srv.Requests())
	}
}

func TestStatusText(t *testing.T) {
	if StatusText(StatusOK) != "OK" || StatusText(999) == "" {
		t.Error("StatusText broken")
	}
}

func TestFullMethodName(t *testing.T) {
	if FullMethodName("a.B", "C") != "/a.B/C" {
		t.Error("FullMethodName wrong")
	}
}
