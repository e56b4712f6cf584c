package rpcrdma

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"dpurpc/internal/arena"
	"dpurpc/internal/fabric"
	"dpurpc/internal/fault"
)

// gatherSchedule reserves, fills and commits the same five requests on rig r,
// either copying every byte into the slot or leaving the "segment" ranges to
// Gather from separate caller buffers, and returns the request payloads the
// server saw. Slot 1 is cancelled after its holes are recorded (an interior
// tombstone); the last slot commits short, cutting its second hole in half;
// a sixth is rolled back off the tail.
func gatherSchedule(t *testing.T, gather bool) (seen [][]byte, st fabric.DirStats, c Counters) {
	t.Helper()
	ccfg, scfg := faultCfgs()
	ccfg.BlockSize, scfg.BlockSize = 4096, 4096
	r := newRig(t, ccfg, scfg, func(req Request) ResponseSpec {
		seen = append(seen, append([]byte(nil), req.Payload...))
		return ResponseSpec{Size: 8}
	})
	type seg struct{ off, len int }
	segs := []seg{{24, 100}, {128, 300}}
	const size, short = 512, 200
	var res []*Reservation
	for i := 0; i < 5; i++ {
		rv, err := r.client.Reserve(uint16(i), size, func(Response) {})
		if err != nil {
			t.Fatal(err)
		}
		fill(rv.Dst, i)
		for k, sg := range segs {
			src := make([]byte, sg.len)
			fill(src, 100*i+k)
			if !gather {
				copy(rv.Dst[sg.off:], src)
				continue
			}
			for j := sg.off; j < sg.off+sg.len; j++ {
				rv.Dst[j] = 0xEE // stale slot bytes: never sent
			}
			r.client.Gather(rv, sg.off, src)
			defer func() {
				// The QP has read src inside the post; reusing it after the
				// round trip changes nothing already delivered.
				for j := range src {
					src[j] = 0xDB
				}
			}()
		}
		res = append(res, rv)
	}
	for i, rv := range res {
		var err error
		switch i {
		case 1:
			r.client.Cancel(rv)
		case len(res) - 1:
			err = r.client.Commit(rv, 0, short)
		default:
			err = r.client.Commit(rv, 0, size)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// A slot rolled back off the block's tail takes its hole with it.
	rv, err := r.client.Reserve(9, size, func(Response) {})
	if err != nil {
		t.Fatal(err)
	}
	if gather {
		r.client.Gather(rv, 8, make([]byte, 64))
	}
	r.client.Cancel(rv)
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	r.pump(t)
	if len(seen) != 5 {
		t.Fatalf("server saw %d requests, want 5", len(seen))
	}
	if !bytes.Equal(seen[1], make([]byte, size)) {
		t.Error("the tombstone carries bytes")
	}
	return seen, r.link.Stats(fabric.DPUToHost), r.client.Counters
}

// A block whose slots gather their segments from caller memory reaches the
// server byte-identical to one whose segments were copied into the slots,
// with the same fabric bytes: a cancelled slot sends none of its holes and a
// slot committed short sends only the part of a hole it declares used.
func TestGatherMatchesCopiedSlots(t *testing.T) {
	want, wantLink, wantCtr := gatherSchedule(t, false)
	got, gotLink, gotCtr := gatherSchedule(t, true)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("request %d differs between the gathered and the copied block", i)
		}
	}
	if gotLink != wantLink {
		t.Errorf("fabric %+v gathered, %+v copied", gotLink, wantLink)
	}
	// Three full slots carry both holes (400 B); the short one carries the
	// first hole and 200-128 bytes of the second.
	if wantCtr.GatherBytes != 0 || gotCtr.GatherBytes != 3*400+100+72 {
		t.Errorf("GatherBytes = %d gathered, %d copied; want %d and 0",
			gotCtr.GatherBytes, wantCtr.GatherBytes, 3*400+100+72)
	}
	if gotCtr.PayloadBytesSent != wantCtr.PayloadBytesSent || gotCtr.BlocksSent != wantCtr.BlocksSent {
		t.Errorf("sent %d B in %d blocks gathered, %d B in %d copied", gotCtr.PayloadBytesSent,
			gotCtr.BlocksSent, wantCtr.PayloadBytesSent, wantCtr.BlocksSent)
	}
}

// A block that never reaches the wire — every post rejected until its
// requests are reaped at RequestTimeout — drops its holes unread: once the
// callers hear of the timeout they may release the memory the holes named,
// and the recycled block keeps no reference to it.
func TestGatherReapedBlockDropsHoles(t *testing.T) {
	ccfg, scfg := faultCfgs()
	ccfg.Faults = &fault.Plan{ErrorRate: 1, Seed: 1}
	ccfg.RequestTimeout = 5 * time.Millisecond
	r := newRig(t, ccfg, scfg, nil)
	var got *Response
	rv, err := r.client.Reserve(1, 256, func(resp Response) { got = &resp })
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.Repeat([]byte{7}, 128)
	r.client.Gather(rv, 64, src)
	if err := r.client.Commit(rv, 0, 256); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); got == nil; {
		if time.Now().After(deadline) {
			t.Fatal("queued block never reaped")
		}
		if _, err := r.client.Progress(); err != nil {
			t.Fatal(err)
		}
	}
	if !errors.Is(got.LocalErr, ErrRequestTimeout) {
		t.Fatalf("LocalErr = %v, want ErrRequestTimeout", got.LocalErr)
	}
	if r.client.Counters.SendFaultRetries == 0 || r.client.Counters.GatherBytes != 0 {
		t.Fatalf("%d retries, %d gathered bytes: want rejected posts and nothing gathered",
			r.client.Counters.SendFaultRetries, r.client.Counters.GatherBytes)
	}
	if len(r.client.freeBlocks) == 0 {
		t.Fatal("the reaped block was not recycled")
	}
	for _, b := range r.client.freeBlocks {
		for _, h := range b.holes[:cap(b.holes)] {
			if h.src != nil {
				t.Fatal("recycled block still names the reaped request's memory")
			}
		}
		for _, s := range b.sgl[:cap(b.sgl)] {
			if s != nil {
				t.Fatal("recycled block's gather list still names memory")
			}
		}
	}
}

// holedEcho answers method 1 by gathering the request's payload straight
// from the receive buffer (a ResponseSpec.Gather echo, whose Build writes
// nothing) and every other method with echoHandler's copy.
func holedEcho(req Request) ResponseSpec {
	if req.Method != 1 {
		return echoHandler(req)
	}
	return ResponseSpec{
		Status: req.Method,
		Size:   len(req.Payload),
		Gather: []Segment{{Off: 0, Src: req.Payload}},
		Build: func(dst []byte, _ uint64) (uint32, int, error) {
			return req.Root, len(dst), nil
		},
	}
}

// holedGet answers method 2, an 8-byte key, with value by gathering it from
// handler memory (a Get of a large stored value); other methods as
// holedEcho. slow, when not nil, holds method 1's handler until it closes.
func holedGet(value []byte, slow chan struct{}) Handler {
	return func(req Request) ResponseSpec {
		switch req.Method {
		case 1:
			if slow != nil {
				<-slow
			}
		case 2:
			return ResponseSpec{
				Status: req.Method,
				Size:   len(value),
				Gather: []Segment{{Off: 0, Src: value}},
				Build: func(dst []byte, _ uint64) (uint32, int, error) {
					return 0, len(dst), nil
				},
			}
		}
		return holedEcho(req)
	}
}

// A response that gathers from its request block must not let an earlier
// response block tell the client that request block is free while its own
// block still has to read it. Here block A (a copied echo of request block
// X2) waits for a credit, sealed full, and block B behind it holds X3's
// gathered echo: B's commit copies the echo in, so the acknowledgment that
// A carries for X3 frees memory nothing reads any more. Before the stall,
// a gathered echo whose block was the next to post kept its hole and
// carried its own request block's acknowledgment.
func TestHoledResponseBehindStalledBlockIsCopied(t *testing.T) {
	ccfg, scfg := smallCfg()
	scfg.Credits = 2
	r := newRig(t, ccfg, scfg, holedEcho)
	var got [][]byte
	send := func(method uint16, size int) {
		t.Helper()
		i := len(got)
		got = append(got, nil)
		err := r.client.Enqueue(CallSpec{Method: method, Size: size,
			Build: func(dst []byte, _ uint64) (uint32, int, error) {
				fill(dst, i)
				return 0, size, nil
			},
			OnResponse: func(resp Response) { got[i] = append([]byte{}, resp.Payload...) },
		})
		if err == nil {
			err = r.client.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	serverPass := func() {
		t.Helper()
		if _, err := r.poller.Progress(); err != nil {
			t.Fatal(err)
		}
	}
	// A copied echo, then a gathered one, spend the server's two credits;
	// the client reads neither response yet, so neither is acknowledged.
	send(0, 64)
	serverPass()
	send(1, 64)
	serverPass()
	if r.server.credits != 0 || r.server.Counters.GatherBytes != 64 {
		t.Fatalf("server holds %d credits, gathered %d bytes; want 0 and the 64-byte echo",
			r.server.credits, r.server.Counters.GatherBytes)
	}
	if pa, _ := parsePreamble(r.server.unacked[1].buf); pa.ackBlocks != 1 {
		t.Errorf("the gathered echo's block acknowledges %d request blocks, want its own", pa.ackBlocks)
	}
	// X2's 3000-byte copied echo opens A; X3's 2000-byte gathered echo does
	// not fit beside it, which seals A and opens B.
	send(0, 3000)
	send(1, 2000)
	serverPass()
	if len(r.server.sendQ) != 1 || r.server.cur == nil || r.server.cur.msgs != 1 {
		t.Fatalf("want one sealed block queued and the gathered echo open: %d queued, open %v",
			len(r.server.sendQ), r.server.cur)
	}
	a, b := r.server.sendQ[0], r.server.cur
	if len(b.holes) != 0 {
		t.Fatal("the echo behind the stalled block kept its hole, so the block ahead acknowledges memory it still reads")
	}
	// The client reads both responses and, with requests outstanding,
	// returns their acknowledgments in an ack-only block; the server then
	// sends A, which acknowledges X2, X3 and that block.
	if _, err := r.client.Progress(); err != nil {
		t.Fatal(err)
	}
	serverPass()
	if r.server.Counters.BlocksSent != 3 {
		t.Fatalf("server sent %d blocks, want A after the first two", r.server.Counters.BlocksSent)
	}
	if pa, _ := parsePreamble(a.buf); pa.ackBlocks != 3 {
		t.Errorf("A acknowledges %d request blocks, want 3", pa.ackBlocks)
	}
	r.pump(t)
	for i, size := range []int{64, 64, 3000, 2000} {
		want := make([]byte, size)
		fill(want, i)
		if !bytes.Equal(got[i], want) {
			t.Errorf("response %d differs from its request", i)
		}
	}
	if r.server.Counters.GatherBytes != 64 {
		t.Errorf("server GatherBytes = %d, want 64: only the first echo is gathered", r.server.Counters.GatherBytes)
	}
}

// One request block whose gathered responses need more response blocks
// than the server has credits (small Gets of large values, serial path)
// completes: every slot answers at commit, so a response block soon
// acknowledges the request block and returns the client the credit its
// acknowledgments need. The first block posts when the second slot
// commits, so the second is then the next to post and gathers too; the
// third finds the second held back by rule (a) (one credit, nothing to
// acknowledge yet) and copies the value in, as do the rest.
func TestHoledResponsesSpanMoreBlocksThanCredits(t *testing.T) {
	ccfg, scfg := smallCfg()
	ccfg.Credits, scfg.Credits = 2, 2
	value := make([]byte, 3000)
	fill(value, 99)
	r := newRig(t, ccfg, scfg, holedGet(value, nil))
	const gets = 5
	ok := 0
	for i := 0; i < gets; i++ {
		err := r.client.Enqueue(CallSpec{Method: 2, Size: 8,
			Build: func(dst []byte, _ uint64) (uint32, int, error) { return 0, 8, nil },
			OnResponse: func(resp Response) {
				if !bytes.Equal(resp.Payload, value) {
					t.Error("a Get's response differs from the value")
				}
				ok++
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	r.pump(t)
	if ok != gets {
		t.Errorf("%d of %d answered", ok, gets)
	}
	if r.server.Counters.GatherBytes != 2*uint64(len(value)) {
		t.Errorf("server GatherBytes = %d, want %d", r.server.Counters.GatherBytes, 2*len(value))
	}
}

// A slow gathered echo of the oldest request block, finishing on a duplex
// worker after fast responses have filled a credit-stalled send queue,
// still completes. The queue's head acknowledges nothing (that request
// block waits on the slow echo) and the client, having spent its last
// credit on a request block, cannot return acknowledgments. The echo's slot
// lands in a block behind the head, so it copies the echo in and answers at
// commit: the head then acknowledges both request blocks and may take the
// last credit.
func TestSlowHoledResponseBehindStalledQueue(t *testing.T) {
	ccfg, scfg := smallCfg()
	ccfg.Credits, scfg.Credits = 2, 2
	scfg.HostWorkers = 2
	value := make([]byte, 3000)
	fill(value, 99)
	slow := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(slow) }) }
	r := newRig(t, ccfg, scfg, holedGet(value, slow))
	t.Cleanup(release) // before the rig's cleanup closes the duplex pool
	until := func(what string, cond func() bool, pass func() (int, error)) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); !cond(); {
			if time.Now().After(deadline) {
				t.Fatalf("never reached: %s", what)
			}
			if _, err := pass(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ok := 0
	echo := make([]byte, 64)
	fill(echo, 7)
	enqueue := func(method uint16) {
		t.Helper()
		size, want := 8, value
		if method == 1 {
			size, want = len(echo), echo
		}
		err := r.client.Enqueue(CallSpec{Method: method, Size: size,
			Build: func(dst []byte, _ uint64) (uint32, int, error) {
				copy(dst, echo)
				return 0, size, nil
			},
			OnResponse: func(resp Response) {
				if !bytes.Equal(resp.Payload, want) {
					t.Errorf("method %d: response differs", method)
				}
				ok++
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// X1: the slow echo and one Get. The Get's block posts; the echo holds
	// X1 unacknowledged.
	enqueue(1)
	enqueue(2)
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	until("the first Get's block posted", func() bool { return r.server.Counters.BlocksSent == 1 },
		r.poller.Progress)
	// X2: three Gets, sent with the acknowledgment of that block on the
	// client's last credit.
	for i := 0; i < 3; i++ {
		enqueue(2)
	}
	until("X2 posted", func() bool { return r.client.Counters.BlocksSent == 2 }, r.client.Progress)
	// The server sends one Get's block and stalls: one credit left, and
	// nothing to acknowledge while X1 waits on the echo. The other two Gets
	// wait in blocks behind it, the last one sealed or still open.
	until("the send queue stalled", func() bool {
		waiting := 0
		if b := r.server.cur; b != nil && b.pending == 0 {
			waiting += b.msgs
		}
		for _, b := range r.server.sendQ {
			if b.pending == 0 {
				waiting += b.msgs
			}
		}
		return r.server.Counters.BlocksSent == 2 && waiting == 2
	}, r.poller.Progress)
	if r.client.Credits() != 0 || r.server.credits != 1 || r.server.acks != 0 {
		t.Fatalf("client %d credits, server %d credits and %d acks: want 0, 1 and 0",
			r.client.Credits(), r.server.credits, r.server.acks)
	}
	release()
	r.pump(t)
	if ok != 5 {
		t.Errorf("%d of 5 answered", ok)
	}
}

// Gathered responses keep liveness at two credits with out-of-order
// completion on the duplex pool: every request block is acknowledged by a
// block that has posted, and no holed block waits forever on an
// acknowledgment only it could carry.
func TestHoledResponsesAtTwoCredits(t *testing.T) {
	for _, workers := range []int{0, 4} {
		ccfg, scfg := smallCfg()
		ccfg.Credits, scfg.Credits = 2, 2
		scfg.HostWorkers = workers
		r := newRig(t, ccfg, scfg, holedEcho)
		ok := 0
		for i := 0; i < 200; i++ {
			size := 8 + 8*(i%64)
			i := i
			spec := CallSpec{Method: uint16(i % 2), Size: size,
				Build: func(dst []byte, _ uint64) (uint32, int, error) {
					fill(dst, i)
					return 0, size, nil
				},
				OnResponse: func(resp Response) {
					want := make([]byte, size)
					fill(want, i)
					if !bytes.Equal(resp.Payload, want) {
						t.Errorf("workers %d: response %d differs from its request", workers, i)
					}
					ok++
				},
			}
			err := r.client.Enqueue(spec)
			if errors.Is(err, arena.ErrOutOfMemory) {
				r.pump(t) // acknowledgments free the send arena
				err = r.client.Enqueue(spec)
			}
			if err != nil {
				t.Fatal(err)
			}
			if i%5 == 4 {
				if err := r.client.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := r.client.Flush(); err != nil {
			t.Fatal(err)
		}
		r.pump(t)
		if ok != 200 || r.server.Counters.GatherBytes == 0 {
			t.Errorf("workers %d: %d of 200 answered, %d bytes gathered", workers, ok, r.server.Counters.GatherBytes)
		}
	}
}
