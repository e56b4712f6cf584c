package rdma

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFast fails the test if Wait does not return well inside its timeout:
// every caller passes a timeout of minutes, so only a wake source other than
// the timer can satisfy it.
func waitFast(t *testing.T, cq *CQ, out []CQE) (int, Wake) {
	t.Helper()
	start := time.Now()
	n, why := cq.Wait(out, time.Minute)
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("Wait took %v: it slept on the timer", el)
	}
	return n, why
}

func TestKickBeforeWaitReturnsImmediately(t *testing.T) {
	cq := NewCQ(4)
	cq.Kick()
	cq.Kick() // kicks coalesce: one token, one wake-up
	var out [4]CQE
	if n, why := waitFast(t, cq, out[:]); n != 0 || why != WakeKick {
		t.Fatalf("Wait after Kick = %d, %v; want 0 completions, WakeKick", n, why)
	}
	// The token is spent: the next Wait sleeps out its (short) timeout.
	if n, why := cq.Wait(out[:], 5*time.Millisecond); n != 0 || why != WakeTimer {
		t.Fatalf("second Wait = %d, %v; want 0, WakeTimer", n, why)
	}
}

func TestKickDuringWaitWakesIt(t *testing.T) {
	cq := NewCQ(4)
	type result struct {
		n   int
		why Wake
	}
	entered := make(chan struct{})
	got := make(chan result, 1)
	go func() {
		var out [4]CQE
		close(entered)
		n, why := cq.Wait(out[:], time.Minute)
		got <- result{n, why}
	}()
	<-entered
	time.Sleep(10 * time.Millisecond) // let the waiter reach its select
	cq.Kick()
	select {
	case r := <-got:
		if r.n != 0 || r.why != WakeKick {
			t.Fatalf("woken Wait = %d, %v; want 0, WakeKick", r.n, r.why)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Kick did not wake a blocked Wait")
	}
}

func TestCompletionsBehindKickAreReturned(t *testing.T) {
	cq := NewCQ(4)
	var out [4]CQE
	// Completion queued before the waiter looks: it wins, and the kick is
	// still there for the next Wait (a spare pass, never a lost one).
	cq.Kick()
	if err := cq.push(CQE{WRID: 1}); err != nil {
		t.Fatal(err)
	}
	if n, why := waitFast(t, cq, out[:]); n != 1 || out[0].WRID != 1 || why != WakeCQE {
		t.Fatalf("Wait = %d (%v), %v; want the queued completion, WakeCQE", n, out[:n], why)
	}
	if n, why := waitFast(t, cq, out[:]); n != 0 || why != WakeKick {
		t.Fatalf("Wait = %d, %v; want the pending kick", n, why)
	}
}

func TestShutdownWinsOverKick(t *testing.T) {
	cq := NewCQ(4)
	cq.Shutdown()
	var out [4]CQE
	// A shut-down queue never blocks, kicked or not, and keeps draining.
	for i := 0; i < 3; i++ {
		cq.Kick()
		if n, _ := waitFast(t, cq, out[:]); n != 0 {
			t.Fatalf("Wait on an empty shut-down CQ = %d", n)
		}
	}
	if err := cq.push(CQE{WRID: 9}); err != nil {
		t.Fatal(err)
	}
	if n, _ := waitFast(t, cq, out[:]); n != 1 || out[0].WRID != 9 {
		t.Fatalf("Wait after shutdown = %d (%v); want the queued completion", n, out[:n])
	}
}

// The protocol every ring site follows: publish the work, then Kick; the
// owner drains its queues, then Waits. With four producers and a one-minute
// timeout, a single lost wake-up hangs the test.
func TestKickNoLostWakeups(t *testing.T) {
	const producers, perProducer = 4, 5000
	cq := NewCQ(4)
	var queued atomic.Int64 // stands in for a submit queue
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				queued.Add(1)
				cq.Kick()
			}
		}()
	}
	done := make(chan int64, 1)
	go func() {
		var out [4]CQE
		var seen int64
		for seen < producers*perProducer {
			seen += queued.Swap(0)
			if seen < producers*perProducer {
				cq.Wait(out[:], time.Minute)
			}
		}
		done <- seen
	}()
	select {
	case seen := <-done:
		if seen != producers*perProducer {
			t.Fatalf("consumed %d of %d", seen, producers*perProducer)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("consumer asleep with work queued: a kick was lost")
	}
	wg.Wait()
}

func TestWaitDoesNotAllocate(t *testing.T) {
	cq := NewCQ(4)
	var out [4]CQE
	cq.Wait(out[:], time.Microsecond) // creates the CQ's one timer
	if a := testing.AllocsPerRun(200, func() { cq.Wait(out[:], 20*time.Microsecond) }); a != 0 {
		t.Errorf("Wait (timer path): %v allocs per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		cq.Kick()
		if _, why := cq.Wait(out[:], time.Minute); why != WakeKick {
			t.Fatalf("woke for %v, want WakeKick", why)
		}
	}); a != 0 {
		t.Errorf("Kick + Wait (kick path): %v allocs per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		if err := cq.push(CQE{WRID: 1}); err != nil {
			t.Fatal(err)
		}
		cq.Wait(out[:], time.Minute)
	}); a != 0 {
		t.Errorf("Wait (completion path): %v allocs per call, want 0", a)
	}
}
