package rdma

import (
	"errors"
	"testing"
	"time"

	"dpurpc/internal/fabric"
	"dpurpc/internal/fault"
)

func postRecvs(t *testing.T, qp *QP, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := qp.PostRecv(RecvWR{WRID: uint64(i)}); err != nil {
			t.Fatalf("PostRecv: %v", err)
		}
	}
}

// A poller blocked in CQ.Wait with a long timeout must be woken promptly by
// QP.Close — teardown latency must not be bounded by WaitTimeout.
func TestCloseWakesBlockedWait(t *testing.T) {
	dpu, _, _ := pair(t, 4096, 16)
	done := make(chan time.Duration, 1)
	ready := make(chan struct{})
	go func() {
		var cqes [4]CQE
		close(ready)
		start := time.Now()
		dpu.recvCQ.Wait(cqes[:], 10*time.Second)
		done <- time.Since(start)
	}()
	<-ready
	time.Sleep(5 * time.Millisecond) // let the waiter block in its select
	dpu.Close()
	select {
	case elapsed := <-done:
		if elapsed > time.Second {
			t.Fatalf("Wait took %v after Close; want well under the 10s timeout", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait still blocked 2s after QP.Close")
	}
}

// After Shutdown, Wait must still drain completions that were already
// queued (non-blocking), so no entries are lost during teardown.
func TestWaitAfterShutdownDrains(t *testing.T) {
	cq := NewCQ(4)
	if err := cq.push(CQE{WRID: 7}); err != nil {
		t.Fatalf("push: %v", err)
	}
	cq.Shutdown()
	var out [4]CQE
	if n, _ := cq.Wait(out[:], time.Minute); n != 1 || out[0].WRID != 7 {
		t.Fatalf("Wait after shutdown = %d (%v), want the queued entry", n, out[:n])
	}
	start := time.Now()
	if n, _ := cq.Wait(out[:], time.Minute); n != 0 {
		t.Fatalf("second Wait = %d, want 0", n)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Wait blocked %v after shutdown", elapsed)
	}
}

// QPs sharing a poller CQ must not shut it down when one of them closes.
func TestCloseSparesSharedRecvCQ(t *testing.T) {
	dpu, host, _ := pair(t, 4096, 16)
	host.MarkSharedRecvCQ()
	postRecvs(t, host, 1)
	host.Close()
	// The shared recv CQ still blocks (no shutdown), so Wait times out.
	var out [1]CQE
	start := time.Now()
	if n, _ := host.recvCQ.Wait(out[:], 20*time.Millisecond); n != 0 {
		t.Fatalf("Wait = %d, want timeout", n)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("shared recv CQ was shut down by QP.Close")
	}
	// The send CQ (owned) was shut down.
	if n, _ := host.sendCQ.Wait(out[:], 10*time.Second); n != 0 {
		t.Fatalf("send CQ Wait = %d", n)
	}
	_ = dpu
}

// Fail injections reject the post synchronously with ErrOpFault and leave
// both sides' queues untouched, so the next post succeeds normally.
func TestInjectFail(t *testing.T) {
	dpu, host, _ := pair(t, 4096, 16)
	dpu.SetInjector(fault.New(fault.Plan{ErrorRate: 1, Seed: 1}))
	postRecvs(t, host, 2)
	err := dpu.PostWriteImm(1, []byte("abc"), 0, 0)
	if !errors.Is(err, ErrOpFault) {
		t.Fatalf("PostWriteImm = %v, want ErrOpFault", err)
	}
	var out [4]CQE
	if n := dpu.sendCQ.Poll(out[:]); n != 0 {
		t.Fatalf("sender got %d completions for a failed post", n)
	}
	if n := host.recvCQ.Poll(out[:]); n != 0 {
		t.Fatalf("receiver got %d completions for a failed post", n)
	}
	if host.RecvDepth() != 2 {
		t.Fatalf("failed post consumed a receive WR: depth=%d", host.RecvDepth())
	}
	// Disable injection: traffic flows again on the same QP.
	dpu.SetInjector(nil)
	if err := dpu.PostWriteImm(2, []byte("abc"), 0, 9); err != nil {
		t.Fatalf("post after fault: %v", err)
	}
	if n := host.recvCQ.Poll(out[:]); n != 1 || out[0].ImmData != 9 {
		t.Fatalf("delivery after fault: n=%d %v", n, out[:n])
	}
}

// Drop injections complete on the sender but never reach the receiver.
func TestInjectDrop(t *testing.T) {
	dpu, host, link := pair(t, 4096, 16)
	dpu.SetInjector(fault.New(fault.Plan{DropRate: 1, Seed: 1}))
	postRecvs(t, host, 1)
	if err := dpu.PostWriteImm(1, []byte("abcd"), 0, 5); err != nil {
		t.Fatalf("dropped post should succeed on the sender: %v", err)
	}
	var out [4]CQE
	if n := dpu.sendCQ.Poll(out[:]); n != 1 || out[0].Status != StatusOK {
		t.Fatalf("sender completion: n=%d %v", n, out[:n])
	}
	if n := host.recvCQ.Poll(out[:]); n != 0 {
		t.Fatalf("receiver got %d completions for a dropped write", n)
	}
	if host.RecvDepth() != 1 {
		t.Fatalf("dropped write consumed a receive WR")
	}
	if tot := link.Stats(fabric.DPUToHost).Bytes; tot != 0 {
		t.Fatalf("dropped write recorded %d bytes on the fabric", tot)
	}
}

// Delay injections deliver intact, late, and in order relative to
// undelayed operations on the same QP.
func TestInjectDelayPreservesOrder(t *testing.T) {
	dpu, host, _ := pair(t, 4096, 64)
	// Seed 3 with these rates yields a mix of delayed and undelayed ops.
	dpu.SetInjector(fault.New(fault.Plan{DelayRate: 0.5, Delay: 2 * time.Millisecond, Seed: 3}))
	defer dpu.Close()
	const n = 32
	postRecvs(t, host, n)
	for i := 0; i < n; i++ {
		if err := dpu.PostWriteImm(uint64(i), []byte{byte(i)}, uint64(i), uint32(i)); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	var got []CQE
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < n && time.Now().Before(deadline) {
		var out [8]CQE
		k, _ := host.recvCQ.Wait(out[:], 50*time.Millisecond)
		got = append(got, out[:k]...)
	}
	if len(got) != n {
		t.Fatalf("received %d of %d delayed completions", len(got), n)
	}
	for i, e := range got {
		if e.ImmData != uint32(i) {
			t.Fatalf("completion %d carries imm %d: delayed ops reordered", i, e.ImmData)
		}
		if host.recvMR.buf[i] != byte(i) {
			t.Fatalf("byte %d = %d, want %d", i, host.recvMR.buf[i], i)
		}
	}
}

// Overflow injections poison the receiver's CQ exactly like an organic
// overflow: sticky, and fatal for the post.
func TestInjectOverflow(t *testing.T) {
	dpu, host, _ := pair(t, 4096, 16)
	dpu.SetInjector(fault.New(fault.Plan{OverflowRate: 1, Seed: 1}))
	postRecvs(t, host, 1)
	if err := dpu.PostWriteImm(1, []byte("x"), 0, 0); !errors.Is(err, ErrCQOverflow) {
		t.Fatalf("PostWriteImm = %v, want ErrCQOverflow", err)
	}
	if !host.recvCQ.Overflowed() {
		t.Fatal("receiver CQ not marked overflowed")
	}
	// The poisoned CQ no longer blocks waiters.
	var out [1]CQE
	start := time.Now()
	host.recvCQ.Wait(out[:], 10*time.Second)
	if time.Since(start) > time.Second {
		t.Fatal("poisoned CQ still blocks waiters")
	}
}

// Under delay injection a gather post is delivered after it returns, so the
// QP delivers what the sources held at the post: a caller that reuses them
// at once does not change the bytes that land.
func TestInjectDelayGatherSnapshotsSources(t *testing.T) {
	dpu, host, _ := pair(t, 4096, 64)
	dpu.SetInjector(fault.New(fault.Plan{DelayRate: 1, Delay: 5 * time.Millisecond, Seed: 1}))
	defer dpu.Close()
	const n = 8
	postRecvs(t, host, n)
	head, seg := make([]byte, 16), make([]byte, 40)
	for i := 0; i < n; i++ {
		for j := range head {
			head[j] = byte(i)
		}
		for j := range seg {
			seg[j] = byte(0x80 + i)
		}
		if err := dpu.PostWriteImmGather(uint64(i), [][]byte{head, seg}, uint64(i*64), uint32(i)); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		for j := range seg {
			seg[j] = 0xDB
		}
	}
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < n && time.Now().Before(deadline) {
		var out [8]CQE
		k, _ := host.recvCQ.Wait(out[:], 50*time.Millisecond)
		got += k
	}
	if got != n {
		t.Fatalf("received %d of %d delayed completions", got, n)
	}
	for i := 0; i < n; i++ {
		b := host.recvMR.buf[i*64 : i*64+56]
		for j, v := range b {
			want := byte(i)
			if j >= 16 {
				want = byte(0x80 + i)
			}
			if v != want {
				t.Fatalf("post %d byte %d = %#x, want %#x", i, j, v, want)
			}
		}
	}
}
