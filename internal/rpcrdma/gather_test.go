package rpcrdma

import (
	"bytes"
	"errors"
	"testing"
	"time"

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
