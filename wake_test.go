package dpurpc_test

import (
	"fmt"
	"testing"
	"time"

	"dpurpc"
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
// DPUWorkers > 0 is deliberately not a case: the pooled DPU pipeline's
// hand-offs are still heartbeat-paced (see DPUServer.wake), so its calls
// would each wait out three ten-second heartbeats.
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
		{"commit_batch_8", dpurpc.StackOptions{CommitBatch: 8}, 5 * time.Second},
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
