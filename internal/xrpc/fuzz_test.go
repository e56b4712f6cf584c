package xrpc

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// walkFrames is the fuzz oracle: it applies the frame reader's rules to a
// byte stream (after the preface) and returns how many requests a server must
// have dispatched by the time it has read all of it, and whether the stream
// breaks the protocol — in which case the server must hang up on its own
// rather than wait for more.
func walkFrames(data []byte) (requests int, violation bool) {
	for {
		if len(data) < frameHeaderLen {
			return requests, false
		}
		length := binary.LittleEndian.Uint32(data[0:4])
		if length < 5 || length > MaxFrameSize {
			return requests, true
		}
		n := int(length) - 5
		if data[4] != frameRequest || n < 2 {
			return requests, true
		}
		if data = data[frameHeaderLen:]; len(data) < n {
			return requests, false // the server is still waiting for the body
		}
		if mlen := int(binary.LittleEndian.Uint16(data[0:2])); 2+mlen > n {
			return requests, true
		}
		requests++
		data = data[n:]
	}
}

// FuzzServeConn feeds arbitrary bytes, after a valid preface, to a server
// connection over net.Pipe. Whatever arrives: no panic; every well-formed
// request is answered; a length below 5 or above MaxFrameSize, a frame that
// is not a request, and a method length past its body each close the
// connection from the server side; no length field drives an allocation
// beyond one MaxFrameSize frame; and every frame is handed back.
func FuzzServeConn(f *testing.F) {
	frame := func(ftype uint8, method string, payload []byte) []byte {
		b := appendFrameHeader(nil, 2+len(method)+len(payload), ftype, 1, uint16(len(method)))
		return append(append(b, method...), payload...)
	}
	// The corpus proper is checked in under testdata/fuzz/FuzzServeConn.
	f.Add(frame(frameRequest, "/t.S/M", []byte("payload")))
	f.Add(append(appendFrameHeader(nil, 4, frameRequest, 9, 200), 1, 2))

	f.Fuzz(func(t *testing.T, data []byte) {
		requests, violation := walkFrames(data)
		srv := NewServer(func(method string, payload []byte) (uint16, []byte) { return StatusOK, nil })
		client, server := net.Pipe()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		served := make(chan struct{})
		go func() {
			srv.serveConn(server)
			close(served)
		}()
		go io.Copy(io.Discard, client) // responses; ends when the pipe closes
		// A write error means the server hung up mid-stream, as a violation
		// makes it; whether it was right to is checked below.
		client.Write(append([]byte(Preface), data...))
		if !violation {
			// The stream is legal so far: the server is waiting for more.
			client.Close()
		}
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatalf("server still reading after a protocol violation (%d requests in)", requests)
		}
		client.Close()
		runtime.ReadMemStats(&after)
		st := srv.Stats()
		if st.Requests != uint64(requests) {
			t.Errorf("served %d requests, want %d", st.Requests, requests)
		}
		if st.FrameBytesInFlight != 0 {
			t.Errorf("%d frame bytes not released", st.FrameBytesInFlight)
		}
		// Complete frames cost at most twice their length (class rounding);
		// only the stream's last frame can claim more than it delivers.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(MaxFrameSize+4*len(data)+2<<20); grew > bound {
			t.Errorf("allocated %d bytes serving %d bytes of input (bound %d)", grew, len(data), bound)
		}
	})
}
