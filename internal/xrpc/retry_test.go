package xrpc

import (
	"sync/atomic"
	"testing"
	"time"
)

// After the 32-bit stream ID wraps, allocation must skip IDs still held by
// slow in-flight calls instead of silently overwriting their callbacks.
func TestStreamIDWraparoundSkipsInUse(t *testing.T) {
	release := make(chan struct{})
	_, addr := startServer(t, func(method string, payload []byte) (uint16, []byte) {
		if method == "/t.S/Block" {
			<-release
		}
		return StatusOK, payload
	})
	defer close(release)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Park a call on stream ID 0.
	blocked := make(chan struct{})
	if err := c.Go("/t.S/Block", nil, func(uint16, []byte, error) {
		close(blocked)
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Simulate the wrap: the next candidate collides with the parked call.
	c.mu.Lock()
	c.nextID = 0
	c.mu.Unlock()
	status, resp, err := c.CallTimeout("/t.S/Echo", []byte("post-wrap"), 2*time.Second)
	if err != nil || status != StatusOK || string(resp) != "post-wrap" {
		t.Fatalf("post-wrap call: %d %q %v", status, resp, err)
	}
	// The parked call survived the wrap (its callback was not overwritten).
	select {
	case <-blocked:
		t.Fatal("parked call resolved early")
	default:
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending = %d, want the parked call", c.Pending())
	}
}

// A response that lands after CallTimeout deregistered its stream must be
// discarded, and the connection must keep working.
func TestLateResponseAfterTimeoutDiscarded(t *testing.T) {
	_, addr := startServer(t, func(method string, payload []byte) (uint16, []byte) {
		if method == "/t.S/Slow" {
			time.Sleep(50 * time.Millisecond)
		}
		return StatusOK, payload
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.CallTimeout("/t.S/Slow", []byte("stale"), 5*time.Millisecond); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after timeout deregistration", c.Pending())
	}
	// Wait out the late response, then verify the connection is healthy and
	// the next call sees its own payload, not the stale one.
	time.Sleep(100 * time.Millisecond)
	status, resp, err := c.Call("/t.S/Echo", []byte("fresh"))
	if err != nil || status != StatusOK || string(resp) != "fresh" {
		t.Fatalf("follow-up call: %d %q %v", status, resp, err)
	}
}

// CallRetry retries transient failures with backoff until success, spending
// and refunding the token-bucket budget.
func TestCallRetryTransientFailure(t *testing.T) {
	var calls atomic.Uint64
	_, addr := startServer(t, func(method string, payload []byte) (uint16, []byte) {
		if calls.Add(1) <= 2 {
			return StatusUnavailable, nil
		}
		return StatusOK, payload
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseBackoff: 100 * time.Microsecond})
	status, resp, err := c.CallRetry("/t.S/Flaky", []byte("x"), time.Second)
	if err != nil || status != StatusOK || string(resp) != "x" {
		t.Fatalf("CallRetry: %d %q %v", status, resp, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if got := c.Retries(); got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
}

// The retry budget caps amplification: with the bucket drained, CallRetry
// returns the failure instead of retrying.
func TestCallRetryBudgetExhaustion(t *testing.T) {
	_, addr := startServer(t, func(method string, payload []byte) (uint16, []byte) {
		return StatusUnavailable, nil
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, BaseBackoff: 50 * time.Microsecond, RetryBudget: 2})
	status, _, err := c.CallRetry("/t.S/Down", nil, time.Second)
	if err != nil || status != StatusUnavailable {
		t.Fatalf("CallRetry: %d %v", status, err)
	}
	if got := c.Retries(); got != 2 {
		t.Fatalf("Retries = %d, want the budget cap of 2", got)
	}
	// Budget empty: the next failing call gets no retries at all.
	before := c.Retries()
	if status, _, _ := c.CallRetry("/t.S/Down", nil, time.Second); status != StatusUnavailable {
		t.Fatalf("status = %d", status)
	}
	if c.Retries() != before {
		t.Fatal("retried with an empty budget")
	}
}

// Non-retryable outcomes (application errors) pass through untouched.
func TestCallRetryNonRetryable(t *testing.T) {
	var calls atomic.Uint64
	_, addr := startServer(t, func(method string, payload []byte) (uint16, []byte) {
		calls.Add(1)
		return StatusInvalidArgument, nil
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRetryPolicy(RetryPolicy{})
	if status, _, err := c.CallRetry("/t.S/Bad", nil, time.Second); err != nil || status != StatusInvalidArgument {
		t.Fatalf("CallRetry: %d %v", status, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want 1", calls.Load())
	}
}
