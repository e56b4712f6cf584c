package rpcrdma

import (
	"errors"
	"testing"
	"time"

	"dpurpc/internal/fault"
)

// batchCfgs returns a client/server config pair with commit coalescing
// enabled on both sides.
func batchCfgs(batch int, flush time.Duration) (Config, Config) {
	cfg := Config{BlockSize: 1024, Credits: 8, SBufSize: 64 * 1024, CQDepth: 64,
		WaitTimeout: 200 * time.Microsecond,
		CommitBatch: batch, CommitFlushTimeout: flush}
	return cfg, cfg
}

// Sustained load with coalescing on both sides: every echo completes, the
// batch target actually triggers seals on both directions, and flush
// accounting covers every message-carrying block.
func TestCommitBatchEchoLoad(t *testing.T) {
	ccfg, scfg := batchCfgs(4, 200*time.Microsecond)
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 200, 64)
	if r.client.Broken() != nil || r.server.Broken() != nil {
		t.Fatalf("connection broke: client=%v server=%v", r.client.Broken(), r.server.Broken())
	}
	if r.client.Counters.FlushBatch == 0 {
		t.Error("client never sealed a full batch at CommitBatch=4 under load")
	}
	if r.server.Counters.FlushBatch == 0 {
		t.Error("server never sealed a full batch at CommitBatch=4 under load")
	}
	cc := r.client.Counters
	if total := cc.FlushFull + cc.FlushBatch + cc.FlushTimer + cc.FlushExplicit; total == 0 {
		t.Error("no flush reasons recorded")
	}
}

// A partial batch — fewer messages than CommitBatch — must seal once
// CommitFlushTimeout expires, on both sides: the client's request block and
// the server's response block each carry fewer messages than the target, so
// both seals must come from the timer.
func TestCommitBatchPartialFlushesByTimer(t *testing.T) {
	ccfg, scfg := batchCfgs(8, 200*time.Microsecond)
	r := newRig(t, ccfg, scfg, nil)
	got := 0
	for i := 0; i < 3; i++ {
		err := r.client.Enqueue(CallSpec{Size: 16,
			OnResponse: func(Response) { got++ }})
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for got < 3 && time.Now().Before(deadline) {
		if _, err := r.client.Progress(); err != nil {
			t.Fatalf("client: %v", err)
		}
		if _, err := r.poller.Progress(); err != nil {
			t.Fatalf("server: %v", err)
		}
	}
	if got != 3 {
		t.Fatalf("partial batch stalled: %d of 3 responses", got)
	}
	if r.client.Counters.FlushTimer == 0 {
		t.Error("client partial batch did not seal via the flush timer")
	}
	if r.server.Counters.FlushTimer == 0 {
		t.Error("server partial batch did not seal via the flush timer")
	}
}

// A partial request block holding a reservation that is still building is
// never sealed by the event loop, even after CommitFlushTimeout — the rule
// ServerConn.flushPartial applies to response blocks. The first pass after
// the commit applies the coalescing policy, here the expired timer.
func TestCommitBatchHoldsPendingReservation(t *testing.T) {
	ccfg, scfg := batchCfgs(8, 200*time.Microsecond)
	r := newRig(t, ccfg, scfg, nil)
	got := 0
	res, err := r.client.Reserve(1, 16, func(Response) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * ccfg.CommitFlushTimeout)
	for time.Now().Before(deadline) {
		if _, err := r.client.Progress(); err != nil {
			t.Fatal(err)
		}
	}
	if c := r.client.Counters; c.BlocksSent != 0 || c.FlushTimer != 0 {
		t.Fatalf("block with a pending slot sealed: %+v", c)
	}
	if err := r.client.Commit(res, 0, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.Progress(); err != nil {
		t.Fatal(err)
	}
	if c := r.client.Counters; c.BlocksSent != 1 || c.FlushTimer != 1 {
		t.Fatalf("committed block not sealed on the next pass: %+v", c)
	}
	r.pump(t)
	if got != 1 {
		t.Fatalf("delivered %d of 1", got)
	}
}

// Flush forces a partial batch out immediately — callers must not have to
// wait out a long CommitFlushTimeout when they know no more traffic is
// coming. The server side keeps flush-every-pass so the client's explicit
// path is observed in isolation.
func TestCommitBatchExplicitFlush(t *testing.T) {
	ccfg, scfg := batchCfgs(8, 10*time.Second)
	scfg.CommitBatch = 0
	r := newRig(t, ccfg, scfg, nil)
	got := 0
	for i := 0; i < 2; i++ {
		err := r.client.Enqueue(CallSpec{Size: 16,
			OnResponse: func(Response) { got++ }})
		if err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	// Progress queues the calls into the current block; Flush seals it.
	if _, err := r.client.Progress(); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	r.pump(t)
	if got != 2 {
		t.Fatalf("explicit flush resolved %d of 2", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("explicit flush took %v — waited out the batch timer", elapsed)
	}
	if r.client.Counters.FlushExplicit == 0 {
		t.Error("no explicit flush recorded")
	}
}

// A blocking poller parked in Wait mid-batch must wake on teardown
// immediately: closing the connection shuts the CQ down, and the budgeted
// wait must return long before either WaitTimeout or the batch deadline.
func TestCommitBatchWaitWakesOnClose(t *testing.T) {
	ccfg, scfg := batchCfgs(8, time.Hour)
	ccfg.WaitTimeout = time.Hour
	ccfg.BusyPoll = false
	r := newRig(t, ccfg, scfg, nil)
	if err := r.client.Enqueue(CallSpec{Size: 16, OnResponse: func(Response) {}}); err != nil {
		t.Fatal(err)
	}
	// First pass moves the call into the current (partial, unsealed) block;
	// the second pass finds nothing to do and parks in Wait for up to the
	// hour-long budget.
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		r.client.Progress()
		r.client.Progress()
	}()
	time.Sleep(20 * time.Millisecond) // let the goroutine reach Wait
	r.client.Close()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Progress did not wake from Wait on Close")
	}
}

// Injected error CQEs landing inside coalesced runs are recovered by
// retry-in-place exactly as at batch 1: every request completes, no request
// ID is stranded, and the connection survives.
func TestCommitBatchSendFaultRetryTransparent(t *testing.T) {
	ccfg, scfg := batchCfgs(4, 200*time.Microsecond)
	ccfg.Faults = &fault.Plan{ErrorRate: 0.3, Seed: 7}
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 200, 64)
	if r.client.Counters.SendFaultRetries == 0 {
		t.Fatal("no send-fault retries recorded at a 30% fault rate")
	}
	if got := r.client.Counters.ResponsesReceived; got != 200 {
		t.Fatalf("ResponsesReceived = %d, want 200", got)
	}
	if r.client.Broken() != nil || r.server.Broken() != nil {
		t.Fatalf("connection broke: client=%v server=%v", r.client.Broken(), r.server.Broken())
	}
	if r.client.Counters.FlushBatch == 0 {
		t.Error("faults disabled batching entirely (no batch seals recorded)")
	}
}

// A dropped doorbell that carried a whole coalesced run must not stall the
// flush timer or strand the run's parked request IDs: every request in the
// batch resolves typed at RequestTimeout, and the ID pool drains back to
// empty outstanding.
func TestCommitBatchDropResolvesTyped(t *testing.T) {
	ccfg, scfg := batchCfgs(8, 200*time.Microsecond)
	ccfg.Faults = &fault.Plan{DropRate: 1, Seed: 1}
	ccfg.RequestTimeout = 20 * time.Millisecond
	r := newRig(t, ccfg, scfg, nil)
	got := 0
	for i := 0; i < 3; i++ {
		err := r.client.Enqueue(CallSpec{Size: 16, OnResponse: func(resp Response) {
			got++
			if !errors.Is(resp.LocalErr, ErrRequestTimeout) {
				t.Errorf("LocalErr = %v, want ErrRequestTimeout", resp.LocalErr)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for got < 3 && time.Now().Before(deadline) {
		if _, err := r.client.Progress(); err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	if got != 3 {
		t.Fatalf("dropped batch stranded %d of 3 requests", 3-got)
	}
	if r.client.Counters.RequestsTimedOut != 3 {
		t.Fatalf("RequestsTimedOut = %d, want 3", r.client.Counters.RequestsTimedOut)
	}
	if r.client.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after reap", r.client.Outstanding())
	}
}
