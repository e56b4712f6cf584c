package rpcrdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// reserveN reserves n slots of payloadSize bytes, recording responses into
// got by slot index.
func reserveN(t *testing.T, c *ClientConn, n, payloadSize int, got []int) []*Reservation {
	t.Helper()
	rs := make([]*Reservation, n)
	for i := 0; i < n; i++ {
		i := i
		r, err := c.Reserve(uint16(i%7), payloadSize, func(resp Response) {
			got[i]++
			if resp.Err {
				t.Errorf("slot %d: error response", i)
			}
			if payloadSize >= 8 {
				if v := binary.LittleEndian.Uint64(resp.Payload); v != uint64(i) {
					t.Errorf("slot %d: payload %d", i, v)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = r
	}
	return rs
}

func TestReserveCommitOutOfOrder(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	got := make([]int, 3)
	rs := reserveN(t, r.client, 3, 64, got)
	// The block is pending: Progress must not transmit it.
	if _, err := r.client.Progress(); err != nil {
		t.Fatal(err)
	}
	if r.client.Counters.BlocksSent != 0 {
		t.Fatalf("pending block transmitted: %+v", r.client.Counters)
	}
	// A reservation that does not fit seals the block full while its slots
	// are still pending; the sealed block then stalls at the head of the
	// send queue until they commit.
	bigGot := 0
	big, err := r.client.Reserve(7, 4000, func(Response) { bigGot++ })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.Progress(); err != nil {
		t.Fatal(err)
	}
	if r.client.Counters.BlocksSent != 0 {
		t.Fatalf("pending block transmitted: %+v", r.client.Counters)
	}
	if r.client.Counters.PipelineStalls == 0 {
		t.Errorf("expected a pipeline stall, counters: %+v", r.client.Counters)
	}
	// Builds complete out of order; commits may happen in any order too.
	if err := r.client.Commit(big, 0, 4000); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 0, 1} {
		binary.LittleEndian.PutUint64(rs[i].Dst, uint64(i))
		if err := r.client.Commit(rs[i], 0, 64); err != nil {
			t.Fatal(err)
		}
	}
	r.pump(t)
	for i, g := range got {
		if g != 1 {
			t.Errorf("slot %d delivered %d times", i, g)
		}
	}
	if bigGot != 1 {
		t.Errorf("oversized slot delivered %d times", bigGot)
	}
	if c := r.client.Counters; c.BlocksSent-c.AckOnlyBlocks != 2 || c.RequestsSent != 4 {
		t.Errorf("counters: %+v", c)
	}
}

func TestReserveDoubleCommit(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	got := make([]int, 1)
	rs := reserveN(t, r.client, 1, 16, got)
	if err := r.client.Commit(rs[0], 0, 16); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Commit(rs[0], 0, 16); err == nil {
		t.Error("double commit accepted")
	}
	r.pump(t)
}

// A failed commit spends its reservation: a tail slot rolls back, an
// interior one is poisoned, and either way its block seals and later calls
// on the connection complete instead of stalling behind it.
func TestFailedCommitSpendsReservation(t *testing.T) {
	for _, interior := range []bool{false, true} {
		t.Run(fmt.Sprintf("interior=%v", interior), func(t *testing.T) {
			ccfg, scfg := smallCfg()
			r := newRig(t, ccfg, scfg, nil)
			res, err := r.client.Reserve(1, 64, func(Response) { t.Error("failed commit delivered") })
			if err != nil {
				t.Fatal(err)
			}
			var after *Reservation
			got := 0
			if interior {
				if after, err = r.client.Reserve(2, 16, func(Response) { got++ }); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.client.Commit(res, 0, 64+8); !errors.Is(err, ErrPayloadSize) {
				t.Fatalf("oversized commit: err = %v, want ErrPayloadSize", err)
			}
			if after != nil {
				if err := r.client.Commit(after, 0, 16); err != nil {
					t.Fatal(err)
				}
			}
			r.call(t, 4, 32)
			if err := r.client.Commit(res, 0, 8); err == nil {
				t.Error("commit of a spent reservation accepted")
			}
			if interior && got != 1 {
				t.Errorf("slot after the failed commit delivered %d times", got)
			}
		})
	}
}

func TestCancelTailRollsBack(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	rs, err := r.client.Reserve(1, 64, func(Response) { t.Error("cancelled slot delivered") })
	if err != nil {
		t.Fatal(err)
	}
	usedBefore := r.client.cur.used
	r.client.Cancel(rs)
	if r.client.Outstanding() != 0 {
		t.Errorf("outstanding = %d after tail cancel", r.client.Outstanding())
	}
	if r.client.cur.used >= usedBefore {
		t.Errorf("tail cancel did not roll back: used %d -> %d", usedBefore, r.client.cur.used)
	}
	// The connection keeps working.
	r.call(t, 4, 32)
}

func TestCancelInteriorPoisonsSlot(t *testing.T) {
	ccfg, scfg := smallCfg()
	type seen struct {
		method  uint16
		payload []byte
	}
	var reqs []seen
	r := newRig(t, ccfg, scfg, func(req Request) ResponseSpec {
		reqs = append(reqs, seen{req.Method, append([]byte(nil), req.Payload...)})
		return echoHandler(req)
	})
	got := make([]int, 2)
	rs := reserveN(t, r.client, 2, 24, got)
	// Slot 0 is interior (slot 1 fixed its stride): cancelling poisons it.
	r.client.Cancel(rs[0])
	binary.LittleEndian.PutUint64(rs[1].Dst, 1)
	if err := r.client.Commit(rs[1], 0, 24); err != nil {
		t.Fatal(err)
	}
	r.pump(t)
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("deliveries: %v", got)
	}
	if len(reqs) != 2 {
		t.Fatalf("server saw %d requests", len(reqs))
	}
	if reqs[0].method != CancelledMethod {
		t.Errorf("poisoned slot method = %#x", reqs[0].method)
	}
	if !bytes.Equal(reqs[0].payload, make([]byte, 24)) {
		t.Errorf("poisoned slot payload not zeroed: %x", reqs[0].payload)
	}
}

func TestInteriorCommitKeepsStride(t *testing.T) {
	ccfg, scfg := smallCfg()
	var payloads [][]byte
	r := newRig(t, ccfg, scfg, func(req Request) ResponseSpec {
		payloads = append(payloads, append([]byte(nil), req.Payload...))
		return echoHandler(req)
	})
	got := make([]int, 2)
	rs := make([]*Reservation, 2)
	for i := 0; i < 2; i++ {
		i := i
		var err error
		rs[i], err = r.client.Reserve(uint16(i), 32, func(Response) { got[i]++ })
		if err != nil {
			t.Fatal(err)
		}
	}
	// Interior slot built short: the declared length must keep the stride
	// so the server still finds slot 1 at the right offset.
	rs[0].Dst[0] = 0xAB
	if err := r.client.Commit(rs[0], 0, 1); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(rs[1].Dst, 1)
	if err := r.client.Commit(rs[1], 0, 32); err != nil {
		t.Fatal(err)
	}
	r.pump(t)
	if len(payloads) != 2 {
		t.Fatalf("server saw %d requests", len(payloads))
	}
	if len(payloads[0]) != 32 || payloads[0][0] != 0xAB {
		t.Errorf("interior slot payload: len %d first %#x", len(payloads[0]), payloads[0][0])
	}
	if v := binary.LittleEndian.Uint64(payloads[1]); v != 1 {
		t.Errorf("slot 1 payload: %d", v)
	}
}

func TestEnqueueBuildErrorLeavesStateClean(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	boom := errors.New("boom")
	err := r.client.Enqueue(CallSpec{
		Method: 1,
		Size:   64,
		Build: func(dst []byte, regionOff uint64) (uint32, int, error) {
			return 0, 0, boom
		},
		OnResponse: func(Response) { t.Error("failed build delivered") },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if r.client.Outstanding() != 0 {
		t.Errorf("outstanding = %d", r.client.Outstanding())
	}
	r.call(t, 4, 32)
}
