package rpcrdma

import (
	"errors"
	"testing"
	"time"

	"dpurpc/internal/arena"
	"dpurpc/internal/fault"
)

// smallCfg returns a client/server config pair sized so tests exercise
// recycling quickly.
func faultCfgs() (Config, Config) {
	ccfg := Config{BlockSize: 1024, Credits: 8, SBufSize: 64 * 1024, CQDepth: 64,
		WaitTimeout: 200 * time.Microsecond}
	scfg := Config{BlockSize: 1024, Credits: 8, SBufSize: 64 * 1024, CQDepth: 64,
		WaitTimeout: 200 * time.Microsecond}
	return ccfg, scfg
}

// Injected post faults on the client's request path are recovered by
// retry-in-place: every request still completes, with no caller-visible
// failure, and the retries show up in the counters.
func TestSendFaultRetryTransparent(t *testing.T) {
	ccfg, scfg := faultCfgs()
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
}

// The same transparency holds for injected faults on the server's response
// path (the same retry-in-place in the host's sender).
func TestServerSendFaultRetryTransparent(t *testing.T) {
	ccfg, scfg := faultCfgs()
	scfg.Faults = &fault.Plan{ErrorRate: 0.3, Seed: 11}
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 200, 64)
	if r.server.Counters.SendFaultRetries == 0 {
		t.Fatal("no server send-fault retries recorded at a 30% fault rate")
	}
	if r.client.Broken() != nil || r.server.Broken() != nil {
		t.Fatalf("connection broke: client=%v server=%v", r.client.Broken(), r.server.Broken())
	}
}

// A dropped request block is reaped at RequestTimeout with a typed local
// failure: the continuation sees ErrRequestTimeout/StatusDeadlineExceeded,
// and nothing hangs.
func TestDropLeadsToTypedTimeout(t *testing.T) {
	ccfg, scfg := faultCfgs()
	ccfg.Faults = &fault.Plan{DropRate: 1, Seed: 1}
	ccfg.RequestTimeout = 20 * time.Millisecond
	r := newRig(t, ccfg, scfg, nil)
	var got *Response
	err := r.client.Enqueue(CallSpec{Size: 16, OnResponse: func(resp Response) {
		got = &resp
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got == nil && time.Now().Before(deadline) {
		if _, err := r.client.Progress(); err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	if got == nil {
		t.Fatal("dropped request never resolved")
	}
	if !errors.Is(got.LocalErr, ErrRequestTimeout) {
		t.Fatalf("LocalErr = %v, want ErrRequestTimeout", got.LocalErr)
	}
	if got.Status != StatusDeadlineExceeded || !got.Err {
		t.Fatalf("Status = %d Err=%v, want StatusDeadlineExceeded error", got.Status, got.Err)
	}
	if r.client.Counters.RequestsTimedOut != 1 {
		t.Fatalf("RequestsTimedOut = %d, want 1", r.client.Counters.RequestsTimedOut)
	}
	if r.client.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after reap", r.client.Outstanding())
	}
}

// A response that arrives after its request timed out is discarded (its
// parked ID retired), the connection stays healthy, and later requests on
// the same connection succeed.
func TestLateResponseDiscarded(t *testing.T) {
	ccfg, scfg := faultCfgs()
	ccfg.Faults = &fault.Plan{DelayRate: 1, Delay: 60 * time.Millisecond, Seed: 1}
	ccfg.RequestTimeout = 10 * time.Millisecond
	r := newRig(t, ccfg, scfg, nil)
	timedOut, ok := 0, 0
	err := r.client.Enqueue(CallSpec{Size: 16, OnResponse: func(resp Response) {
		if errors.Is(resp.LocalErr, ErrRequestTimeout) {
			timedOut++
		} else if resp.LocalErr == nil && !resp.Err {
			ok++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	// Pump both sides: the request times out locally at 10ms, reaches the
	// server at ~60ms, and the (undelayed) response comes back late.
	deadline := time.Now().Add(5 * time.Second)
	for r.client.Counters.LateResponsesDropped == 0 && time.Now().Before(deadline) {
		if _, err := r.client.Progress(); err != nil {
			t.Fatalf("client: %v", err)
		}
		if _, err := r.poller.Progress(); err != nil {
			t.Fatalf("server: %v", err)
		}
	}
	if timedOut != 1 {
		t.Fatalf("timedOut = %d, want 1", timedOut)
	}
	if got := r.client.Counters.LateResponsesDropped; got != 1 {
		t.Fatalf("LateResponsesDropped = %d, want 1", got)
	}
	if r.client.Broken() != nil {
		t.Fatalf("connection broke on a late response: %v", r.client.Broken())
	}
	// The connection still works. Drop the delay injection first (safe: the
	// late response already arrived, so the delay line is empty and an
	// inline post cannot overtake a queued delivery) — otherwise the
	// follow-up would time out exactly like the first request.
	r.client.qp.SetInjector(nil)
	err = r.client.Enqueue(CallSpec{Size: 16, OnResponse: func(resp Response) {
		if resp.LocalErr == nil && !resp.Err {
			ok++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for ok == 0 && time.Now().Before(deadline) {
		if _, err := r.client.Progress(); err != nil {
			t.Fatalf("client: %v", err)
		}
		if _, err := r.poller.Progress(); err != nil {
			t.Fatalf("server: %v", err)
		}
	}
	if ok != 1 {
		t.Fatalf("follow-up request did not complete (ok=%d)", ok)
	}
}

// A genuinely lost block (dropped, then followed by live traffic) is
// detected by the receiver as a sequence gap and surfaces as the typed,
// connection-fatal ErrSeqGap — never as silent response misdelivery.
func TestSeqGapDetected(t *testing.T) {
	ccfg, scfg := faultCfgs()
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 1, 16) // block 0 flows normally
	// Lose exactly the next block: full-drop injector on, send, off.
	r.client.qp.SetInjector(fault.New(fault.Plan{DropRate: 1, Seed: 1}))
	if err := r.client.Enqueue(CallSpec{Size: 16, OnResponse: func(Response) {}}); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	r.client.qp.SetInjector(nil)
	// The next live block carries seq 2; the server expects 1.
	if err := r.client.Enqueue(CallSpec{Size: 16, OnResponse: func(Response) {}}); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.poller.Progress(); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("poller err = %v, want ErrSeqGap", err)
	}
	if !errors.Is(r.server.Broken(), ErrSeqGap) {
		t.Fatalf("server.Broken() = %v, want ErrSeqGap", r.server.Broken())
	}
}

// Saturating the send arena while nothing answers must fail typed once the
// bounded drain wait runs out: ErrSendBufferFull, still matching
// arena.ErrOutOfMemory for the pipelined owners' backpressure checks.
func TestReserveSendBufferFullTyped(t *testing.T) {
	ccfg, scfg := faultCfgs()
	ccfg.SBufSize = 8 * 1024
	r := newRig(t, ccfg, scfg, nil)
	var err error
	for i := 0; i < 64; i++ {
		if err = r.client.Enqueue(CallSpec{Size: 512, OnResponse: func(Response) {}}); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrSendBufferFull) {
		t.Fatalf("err = %v, want ErrSendBufferFull", err)
	}
	if !errors.Is(err, arena.ErrOutOfMemory) {
		t.Fatalf("err = %v does not match arena.ErrOutOfMemory", err)
	}
}

// While the host answers, the same saturation recovers: Reserve drains
// acknowledgments in place (for up to 2 × WaitTimeout, here 2 s) and the
// workload completes without a caller-visible failure.
func TestReserveRecoversFromArenaExhaustion(t *testing.T) {
	ccfg, scfg := faultCfgs()
	ccfg.SBufSize = 8 * 1024 // 7 usable 1 KiB blocks: saturates immediately
	ccfg.WaitTimeout = time.Second
	r := newRig(t, ccfg, scfg, nil)
	// Answer requests concurrently so acknowledgments are in flight while
	// Reserve waits — the scenario the bounded drain is for.
	stop := make(chan struct{})
	pollerDone := make(chan struct{})
	go func() {
		defer close(pollerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.poller.Progress(); err != nil {
				return
			}
		}
	}()
	const n = 64
	got := 0
	for i := 0; i < n; i++ {
		err := r.client.Enqueue(CallSpec{Size: 512, OnResponse: func(resp Response) {
			if resp.LocalErr == nil && !resp.Err {
				got++
			}
		}})
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.client.Outstanding() > 0 && time.Now().Before(deadline) {
		if _, err := r.client.Progress(); err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	close(stop)
	<-pollerDone
	if got != n {
		t.Fatalf("completed %d of %d after arena saturation", got, n)
	}
	if r.client.Counters.SendFullRecoveries == 0 {
		t.Fatal("workload fit without ever saturating the arena; shrink SBufSize")
	}
}

// Drain resolves a quiesced connection promptly and a broken one by failing
// the remaining requests exactly once.
func TestClientDrain(t *testing.T) {
	ccfg, scfg := faultCfgs()
	r := newRig(t, ccfg, scfg, nil)
	done := 0
	for i := 0; i < 8; i++ {
		if err := r.client.Enqueue(CallSpec{Size: 16, OnResponse: func(Response) { done++ }}); err != nil {
			t.Fatal(err)
		}
	}
	stop, pollerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pollerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.poller.Progress(); err != nil {
				return
			}
			if r.server.Broken() != nil {
				return
			}
		}
	}()
	err := r.client.Drain(5 * time.Second)
	close(stop)
	<-pollerDone // ServerPoller.Close is owner-side: not under a running Progress
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if done != 8 || r.client.Outstanding() != 0 {
		t.Fatalf("done=%d outstanding=%d after Drain", done, r.client.Outstanding())
	}
	r.poller.Close()
}

// The deterministic fault matrix: a fixed set of plans and seeds runs a
// short workload each; every request must resolve exactly once — a real
// response, a typed timeout, or a typed connection failure — with no hangs.
// This is the make-test tier of the chaos soak.
func TestDeterministicFaultMatrix(t *testing.T) {
	plans := []fault.Plan{
		{ErrorRate: 0.05, Seed: 101},
		{ErrorRate: 0.3, Seed: 102},
		{DelayRate: 0.2, Delay: 300 * time.Microsecond, Seed: 103},
		{DropRate: 0.02, Seed: 104},
		{ErrorRate: 0.05, DropRate: 0.01, DelayRate: 0.1, Delay: 200 * time.Microsecond, Seed: 105},
	}
	for _, plan := range plans {
		plan := plan
		t.Run(plan.String(), func(t *testing.T) {
			ccfg, scfg := faultCfgs()
			ccfg.Faults = &plan
			ccfg.RequestTimeout = 20 * time.Millisecond
			r := newRig(t, ccfg, scfg, nil)
			const n = 150
			resolved, issued := 0, 0
			for i := 0; i < n; i++ {
				err := r.client.Enqueue(CallSpec{Size: 32, OnResponse: func(Response) {
					resolved++
				}})
				if err != nil {
					break // broken or full: stop issuing
				}
				issued++
				if i%8 == 7 {
					if _, err := r.client.Progress(); err != nil {
						break
					}
					if _, err := r.poller.Progress(); err != nil && !errors.Is(err, ErrConnBroken) {
						t.Fatalf("poller: %v", err)
					}
				}
			}
			_ = r.client.Flush()
			deadline := time.Now().Add(15 * time.Second)
			for r.client.Outstanding() > 0 && r.client.Broken() == nil &&
				time.Now().Before(deadline) {
				if _, err := r.client.Progress(); err != nil {
					break
				}
				if _, err := r.poller.Progress(); err != nil && !errors.Is(err, ErrConnBroken) {
					t.Fatalf("poller: %v", err)
				}
			}
			if r.client.Broken() != nil {
				// Connection-fatal fault (e.g. a drop detected as a seq gap):
				// the remaining requests must fail typed, exactly once each.
				r.client.Abort(StatusUnavailable)
			}
			if resolved != issued {
				t.Fatalf("plan %v: %d of %d issued requests resolved (broken=%v)",
					plan, resolved, issued, r.client.Broken())
			}
			if r.client.Outstanding() != 0 {
				t.Fatalf("plan %v: %d leaked outstanding entries", plan, r.client.Outstanding())
			}
		})
	}
}
