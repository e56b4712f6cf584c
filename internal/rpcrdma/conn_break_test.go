package rpcrdma

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestBrokenConcurrentWithAbort exercises the sticky Broken() probe from
// foreign goroutines while the owner breaks the connection — the PollerGroup
// access pattern (shards poll Broken() on connections they do not own).
// Run under -race this pins the atomic-mirror contract: Broken() never
// tears, and once non-nil it stays the same error.
func TestBrokenConcurrentWithAbort(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)

	const readers = 4
	var wg sync.WaitGroup
	errs := make([]error, readers)
	start := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for {
				if err := r.client.Broken(); err != nil {
					// Sticky: a second read must return the same error.
					if again := r.client.Broken(); again != err {
						t.Errorf("reader %d: Broken() changed: %v then %v", i, err, again)
					}
					errs[i] = err
					return
				}
			}
		}(i)
	}
	close(start)
	// Give the readers a moment to observe the healthy state, then break.
	time.Sleep(time.Millisecond)
	r.client.Abort(StatusUnavailable)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("reader %d returned without observing the break", i)
		}
	}
	if r.client.Broken() == nil {
		t.Fatal("Broken() cleared after Abort — must be sticky")
	}
}

// TestServerBrokenConcurrentWithFail is the server-side twin: readers poll
// ServerConn.Broken() while the poller (this goroutine) discovers the
// peer's death and fails the connection.
func TestServerBrokenConcurrentWithFail(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)

	const readers = 4
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for r.server.Broken() == nil {
			}
		}(i)
	}
	close(start)
	time.Sleep(time.Millisecond)
	r.client.Close() // peer dies
	deadline := time.Now().Add(5 * time.Second)
	for r.server.Broken() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server never noticed the dead peer")
		}
		r.poller.Progress()
	}
	wg.Wait()
}

// TestIdleConnDetectsDeadQP pins the stranded-request fix: a request is
// posted, then the QP dies before the response arrives. The connection is
// idle — nothing left to post that would trip a completion error — so only
// the Dead() probe at the top of Progress can notice. Without it the
// request sits until the deadline reaper; with it Progress fails on the
// next pass and Abort resolves the request typed immediately.
func TestIdleConnDetectsDeadQP(t *testing.T) {
	ccfg, scfg := smallCfg()
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
	// Drain the send completion so the connection goes fully idle with the
	// request outstanding; the server is never progressed, so no response
	// can arrive.
	for i := 0; i < 100; i++ {
		if _, err := r.client.Progress(); err != nil {
			t.Fatalf("healthy progress failed: %v", err)
		}
	}
	if r.client.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", r.client.Outstanding())
	}

	r.client.Close() // the kill: QP torn down with the request in flight
	_, err = r.client.Progress()
	if !errors.Is(err, ErrConnBroken) {
		t.Fatalf("idle Progress after QP death = %v, want ErrConnBroken", err)
	}
	r.client.Abort(StatusUnavailable)
	if got == nil {
		t.Fatal("in-flight request never resolved after QP death")
	}
	if !got.Err || got.Status != StatusUnavailable {
		t.Fatalf("request resolved err=%v status=%d, want typed UNAVAILABLE", got.Err, got.Status)
	}
}
