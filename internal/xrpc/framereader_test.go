package xrpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"
)

// chunkConn delivers what its connection reads in pieces of at most next()
// bytes, as a socket may: the frame readers must reassemble headers and
// bodies split anywhere, including across the read buffer's fills.
type chunkConn struct {
	net.Conn
	next func() int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if n := c.next(); len(p) > n {
		p = p[:n]
	}
	return c.Conn.Read(p)
}

// chunkings are the read sizes the frame-reader tests deliver in, each
// made fresh per connection end.
var chunkings = []struct {
	name string
	next func() func() int
}{
	{"1B", func() func() int { return func() int { return 1 } }},
	{"9B", func() func() int { return func() int { return 9 } }},
	{"random", func() func() int {
		rng := rand.New(rand.NewSource(7))
		return func() int { return 1 + rng.Intn(3*ioBufSize) }
	}},
}

// frameBodySizes puts every side of the large-body threshold next to small
// bodies: small after large, large after small, large after large.
var frameBodySizes = []int{
	40, ioBufSize - 1, 40, ioBufSize, ioBufSize + 1, 2, 3 * ioBufSize, 40, ioBufSize + 1, ioBufSize - 1,
}

// Both frame readers, the server's and the client's, deliver every body
// byte-exact whatever pieces the socket hands them, for bodies below, at and
// above the size that bypasses the read buffer. The method is empty, so a
// request and its echo have the same body size.
func TestFrameReaderChunked(t *testing.T) {
	for _, chunking := range chunkings {
		t.Run(chunking.name, func(t *testing.T) {
			srv := NewServer(echo)
			clientSide, serverSide := net.Pipe()
			served := make(chan struct{})
			go func() {
				srv.serveConn(&chunkConn{serverSide, chunking.next()})
				close(served)
			}()
			c, err := NewClient(&chunkConn{clientSide, chunking.next()})
			if err != nil {
				t.Fatal(err)
			}
			type result struct {
				status uint16
				resp   []byte
				err    error
			}
			results := make([]chan result, len(frameBodySizes))
			payloads := make([][]byte, len(frameBodySizes))
			for i, body := range frameBodySizes {
				payloads[i] = make([]byte, body-2)
				for j := range payloads[i] {
					payloads[i][j] = byte(i*31 + j*7)
				}
				ch := make(chan result, 1)
				results[i] = ch
				err := c.Go("", payloads[i], func(status uint16, p []byte, err error) {
					ch <- result{status, append([]byte(nil), p...), err}
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			for i, ch := range results {
				select {
				case r := <-ch:
					if r.err != nil || r.status != StatusOK || !bytes.Equal(r.resp, payloads[i]) {
						t.Errorf("body %d (%d B): status %d, err %v, %d B back, equal %v", i,
							frameBodySizes[i], r.status, r.err, len(r.resp), bytes.Equal(r.resp, payloads[i]))
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("body %d (%d B) not answered", i, frameBodySizes[i])
				}
			}
			c.Close()
			<-served
			if st := srv.Stats(); st.Requests != uint64(len(frameBodySizes)) || st.FrameBytesInFlight != 0 {
				t.Errorf("%d requests served, %d frame bytes in flight", st.Requests, st.FrameBytesInFlight)
			}
		})
	}
}

// After a body large enough to bypass the read buffer, the next header is
// read on its own. The idle deadline firing while only part of that header
// has arrived loses none of it, and does not close a connection with a
// request in flight.
func TestIdleDeadlineMidHeaderAfterLargeBody(t *testing.T) {
	const idle = 100 * time.Millisecond
	gate := make(chan struct{})
	srv, addr := startIdleServer(t, idle, func(method string, payload []byte) (uint16, []byte) {
		if method == "/t.S/Slow" {
			<-gate
		}
		return StatusOK, payload
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := func(id uint32, method string, fill byte) ([]byte, []byte) {
		payload := bytes.Repeat([]byte{fill}, ioBufSize+100)
		b := appendFrameHeader(nil, 2+len(method)+len(payload), frameRequest, id, uint16(len(method)))
		return append(append(b, method...), payload...), payload
	}
	slow, slowPayload := frame(1, "/t.S/Slow", 0x5A)
	next, nextPayload := frame(2, "/t.S/Echo", 0xA5)
	conn.Write(append([]byte(Preface), slow...))
	conn.Write(next[:4])
	// The deadline fires at least twice on a header that stopped at 4
	// bytes; the slow call in flight keeps the connection busy.
	time.Sleep(idle * 5 / 2)
	for i, piece := range [][]byte{next[4:7], next[7 : frameHeaderLen+3], next[frameHeaderLen+3:]} {
		conn.Write(piece)
		if i < 2 {
			time.Sleep(idle * 3 / 4)
		}
	}
	close(gate)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for range 2 {
		hdr := make([]byte, frameHeaderLen+2)
		if _, err := io.ReadFull(conn, hdr); err != nil {
			t.Fatalf("response lost: %v (idle closes: %d)", err, srv.Stats().IdleClosed)
		}
		resp := make([]byte, int(binary.LittleEndian.Uint32(hdr[0:4]))-5-2)
		if _, err := io.ReadFull(conn, resp); err != nil {
			t.Fatal(err)
		}
		want := map[uint32][]byte{1: slowPayload, 2: nextPayload}[binary.LittleEndian.Uint32(hdr[5:9])]
		if !bytes.Equal(resp, want) {
			t.Fatalf("stream %d: echo damaged", binary.LittleEndian.Uint32(hdr[5:9]))
		}
	}
	if n := srv.Stats().IdleClosed; n != 0 {
		t.Fatalf("%d idle closes of a busy connection", n)
	}
}

// readLog is a connection that serves a fixed byte stream and records the
// size of every read asked of it.
type readLog struct {
	net.Conn
	r     *bytes.Reader
	asked []int
}

func (c *readLog) Read(p []byte) (int, error) {
	c.asked = append(c.asked, len(p))
	return c.r.Read(p)
}

// After a large body the read buffer's next fill asks the connection for the
// header alone, and the next large body is read from the connection
// straight into the caller's memory, not through the buffer.
func TestFrameReaderLoneHeaderAfterLargeBody(t *testing.T) {
	const body = ioBufSize + 100
	var stream []byte
	for id := uint32(1); id <= 2; id++ {
		stream = appendFrameHeader(stream, body, frameRequest, id, 0)
		stream = append(stream, bytes.Repeat([]byte{byte(id)}, body-2)...)
	}
	conn := &readLog{r: bytes.NewReader(stream)}
	var rd frameReader
	rd.init(conn)
	dst := make([]byte, body)
	for id := 1; id <= 2; id++ {
		if _, _, n, err := readFrameHeader(rd.br); err != nil || n != body {
			t.Fatalf("frame %d header: %d, %v", id, n, err)
		}
		if id == 2 && conn.asked[len(conn.asked)-1] > frameHeaderLen {
			t.Fatalf("header after a large body filled the buffer with a %d-byte read", conn.asked[len(conn.asked)-1])
		}
		reads := len(conn.asked)
		if _, err := rd.readBody(dst, true); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst[2:], bytes.Repeat([]byte{byte(id)}, body-2)) {
			t.Fatalf("frame %d body damaged", id)
		}
		if id == 2 && (len(conn.asked) != reads+1 || conn.asked[reads] != body) {
			t.Fatalf("second body read as %v, want one %d-byte read straight into it", conn.asked[reads:], body)
		}
	}
}
