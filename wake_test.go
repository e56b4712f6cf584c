package dpurpc_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dpurpc"
	"dpurpc/internal/metrics"
)

// heartbeatOptions returns opts with both pollers' idle heartbeat raised to
// ten seconds: any hand-off that still relies on the timer to be noticed
// takes ten seconds instead of a millisecond, which no test below survives.
func heartbeatOptions(opts dpurpc.StackOptions) dpurpc.StackOptions {
	opts.ClientConfig.WaitTimeout = 10 * time.Second
	opts.ServerConfig.WaitTimeout = 10 * time.Second
	return opts
}

// Every hand-off in the datapath — xRPC goroutine to DPU poller, DPU to
// host, host poller to duplex worker and back — must wake its consumer.
// 1 000 sequential depth-1 calls cross each of them at least once per call;
// with the heartbeat at ten seconds a single hand-off left to the timer blows
// the two-second budget five times over.
//
// The DPU poller's hand-offs — submit and, with workers, worker
// completion — both ring the poller; its cases would each wait out a
// ten-second heartbeat per call if either did not.
//
// Commit coalescing is the one mode that sleeps on a timer by design: a
// depth-1 call never fills its batch, so each direction waits out
// CommitFlushTimeout (50 µs, which an idle Go runtime rounds up to about a
// millisecond). That is ~1.6 s of deadline sleeps per 1 000 calls, so the
// case gets five seconds — still half of one missed heartbeat — and its
// deadline wake-ups are not counted as heartbeat wake-ups.
func TestLivenessDoesNotDependOnHeartbeat(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   dpurpc.StackOptions
		budget time.Duration
	}{
		{"serial", dpurpc.StackOptions{DPUWorkers: 0}, 2 * time.Second},
		{"host_workers_2", dpurpc.StackOptions{HostWorkers: 2}, 2 * time.Second},
		{"dpu_workers_2", dpurpc.StackOptions{DPUWorkers: 2}, 2 * time.Second},
		{"dpu_workers_2_host_2", dpurpc.StackOptions{DPUWorkers: 2, HostWorkers: 2}, 2 * time.Second},
		{"commit_batch_8", dpurpc.StackOptions{CommitBatch: 8}, 5 * time.Second},
		{"dpu_workers_2_commit_batch_8", dpurpc.StackOptions{DPUWorkers: 2, CommitBatch: 8}, 5 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			schema, err := dpurpc.ParseSchema("greeter.proto", greeterProto)
			if err != nil {
				t.Fatal(err)
			}
			stack, err := dpurpc.NewOffloadedStack(schema, greeterImpls(t, schema), heartbeatOptions(tc.opts))
			if err != nil {
				t.Fatal(err)
			}
			req := schema.NewMessage("demo.HelloRequest")
			req.SetString("name", "w")
			req.SetUint32("times", 2)
			payload := req.Marshal(nil)
			call := stack.Handler()

			const calls = 1000
			start := time.Now()
			for i := 0; i < calls; i++ {
				status, resp := call("/demo.Greeter/Hello", payload)
				if status != 0 {
					t.Fatalf("call %d: status %d (%s)", i, status, resp)
				}
				out := schema.NewMessage("demo.HelloReply")
				if err := out.Unmarshal(resp); err != nil || out.GetString("text") != "hello w" {
					t.Fatalf("call %d: reply %q, err %v", i, out.GetString("text"), err)
				}
			}
			elapsed := time.Since(start)
			_, _, timer := stack.Deployment().PollerWakes()
			closeStart := time.Now()
			stack.Close()
			if elapsed > tc.budget {
				t.Errorf("%d sequential calls took %v (> %v) with a 10s heartbeat: a hand-off is waiting for the timer", calls, elapsed, tc.budget)
			}
			if timer != 0 && tc.opts.CommitBatch <= 1 {
				t.Errorf("%d timer wake-ups in %v with a 10s heartbeat", timer, elapsed)
			}
			if d := time.Since(closeStart); d > 2*time.Second {
				t.Errorf("Close took %v with a 10s heartbeat: a poller slept through its stop signal", d)
			}
		})
	}
}

// At the default 1 ms heartbeat a pooled DPU pipeline that left a hand-off
// to the timer still finishes every call, just three heartbeats late — the
// only trace is rpcrdma_poller_wakeups_total{reason="timer"} climbing with
// the request rate (about three per call). 1 000 depth-1 calls must leave
// the DPU poller's timer wake-ups at 10 % of the calls or fewer. The slack is
// not for lost kicks: on a machine busy with other tests the host side can
// stay off-CPU for a whole heartbeat while the poller waits for its answer,
// and the serial path then times out on up to ~3 % of calls too.
func TestPooledDPUPollerNotTimerPaced(t *testing.T) {
	schema, err := dpurpc.ParseSchema("greeter.proto", greeterProto)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := dpurpc.NewOffloadedStack(schema, greeterImpls(t, schema), dpurpc.StackOptions{DPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	req := schema.NewMessage("demo.HelloRequest")
	req.SetString("name", "p")
	payload := req.Marshal(nil)
	call := stack.Handler()
	// The DPU side alone: the host poller's timer wake-ups are not this
	// pipeline's hand-offs.
	dpuTimer := func() uint64 {
		var n uint64
		for _, dpu := range stack.Deployment().DPUs {
			n += dpu.Client().Gauges().Wakes.Timer.Load()
		}
		return n
	}
	const calls = 1000
	timer0 := dpuTimer()
	for i := 0; i < calls; i++ {
		if status, resp := call("/demo.Greeter/Hello", payload); status != 0 {
			t.Fatalf("call %d: status %d (%s)", i, status, resp)
		}
	}
	_, _, all := stack.Deployment().PollerWakes()
	if timer := dpuTimer() - timer0; timer > calls/10 {
		t.Errorf("%d DPU poller timer wake-ups over %d depth-1 calls (all pollers: %d), want <= %d",
			timer, calls, all, calls/10)
	}
}

// The kick must not turn the poll() path into a spin: a stack with no
// traffic makes one pass per heartbeat per poller and nothing rings it.
func TestIdleStackStaysIdle(t *testing.T) {
	schema, err := dpurpc.ParseSchema("greeter.proto", greeterProto)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []dpurpc.StackOptions{{}, {DPUWorkers: 2, HostWorkers: 2}} {
		t.Run(fmt.Sprintf("dpu%d_host%d", opts.DPUWorkers, opts.HostWorkers), func(t *testing.T) {
			stack, err := dpurpc.NewOffloadedStack(schema, greeterImpls(t, schema), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer stack.Close()
			time.Sleep(50 * time.Millisecond) // let the pollers reach their first wait
			cqe0, kick0, timer0 := stack.Deployment().PollerWakes()
			time.Sleep(time.Second)
			cqe, kick, timer := stack.Deployment().PollerWakes()
			cqe, kick, timer = cqe-cqe0, kick-kick0, timer-timer0
			// Two pollers (one DPU, one host), a 1 ms heartbeat each: at most
			// ~1 000 passes per poller per second, all of them timer wake-ups.
			const pollers = 2
			if passes := cqe + kick + timer; passes > pollers*1100 {
				t.Errorf("idle for 1s: %d poller passes (cqe %d, kick %d, timer %d), want <= %d",
					passes, cqe, kick, timer, pollers*1100)
			}
			if kick != 0 || cqe != 0 {
				t.Errorf("idle for 1s: %d kicks and %d completions woke the pollers, want none", kick, cqe)
			}
			if timer == 0 {
				t.Error("idle for 1s: no heartbeat at all (the reaper and the dead-peer probe never ran)")
			}
		})
	}
}

// The credit protocol's liveness signals are exported per connection:
// credit stalls, ack-only blocks and the acknowledgments the DPU client owes
// the host. With two request credits, concurrent callers run out of credits
// at once, so the stall series must climb; the other two must be readable.
func TestCreditGauges(t *testing.T) {
	schema, err := dpurpc.ParseSchema("greeter.proto", greeterProto)
	if err != nil {
		t.Fatal(err)
	}
	opts := dpurpc.StackOptions{HostWorkers: 2}
	opts.ClientConfig.Credits = 2
	opts.ClientConfig.CQDepth = 2 * dpurpc.DefaultServerConfig().Credits
	stack, err := dpurpc.NewOffloadedStack(schema, greeterImpls(t, schema), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	smp := metrics.NewSampler(time.Hour, 4, nil) // sampled by hand
	stack.RegisterGauges(smp)
	last := func(name string) float64 {
		t.Helper()
		smp.SampleOnce()
		s := smp.Series()[name+`{conn="0"}`]
		if len(s) == 0 {
			t.Fatalf("gauge %s not registered (have %v)", name, smp.SeriesKeys())
		}
		return s[len(s)-1].V
	}
	req := schema.NewMessage("demo.HelloRequest")
	req.SetString("name", "c")
	payload := req.Marshal(nil)
	call := stack.Handler()
	deadline := time.Now().Add(5 * time.Second)
	for last("conn_credit_stalls_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("conn_credit_stalls_total stayed 0 with 2 credits and 8 concurrent callers")
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if status, _ := call("/demo.Greeter/Hello", payload); status != 0 {
						t.Errorf("status %d", status)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	if v := last("conn_ack_only_blocks_total"); v < 0 {
		t.Errorf("conn_ack_only_blocks_total = %v", v)
	}
	if v := last("conn_acks_pending"); v < 0 || v > float64(dpurpc.DefaultServerConfig().Credits) {
		t.Errorf("conn_acks_pending = %v, want within [0, server credits]", v)
	}
}
