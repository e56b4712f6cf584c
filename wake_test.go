package dpurpc_test

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpurpc"
	"dpurpc/internal/metrics"
)

// heartbeatOptions returns opts with both pollers' idle heartbeat raised to
// ten seconds: any hand-off that still relies on the timer to be noticed
// takes ten seconds instead of a millisecond, which no test below survives.
func heartbeatOptions(opts dpurpc.StackOptions) dpurpc.StackOptions {
	opts.ClientCfg.WaitTimeout = 10 * time.Second
	opts.ServerCfg.WaitTimeout = 10 * time.Second
	return opts
}

// Every hand-off in the datapath — xRPC goroutine to DPU poller, DPU to
// host, host poller to duplex worker and back — must wake its consumer.
// 1 000 sequential depth-1 calls cross each of them at least once per call;
// with the heartbeat at ten seconds a single hand-off left to the timer blows
// the two-second budget five times over.
//
// The DPU poller's hand-off from the xRPC goroutine (submit) rings the
// poller; every case would wait out a ten-second heartbeat per call if it
// did not. No case may wake on the timer at all.
func TestLivenessDoesNotDependOnHeartbeat(t *testing.T) {
	const budget = 2 * time.Second
	for _, tc := range []struct {
		name string
		opts dpurpc.StackOptions
	}{
		{"serial", dpurpc.StackOptions{}},
		{"host_workers_2", dpurpc.StackOptions{ServerCfg: dpurpc.Config{HostWorkers: 2}}},
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
			if elapsed > budget {
				t.Errorf("%d sequential calls took %v (> %v) with a 10s heartbeat: a hand-off is waiting for the timer", calls, elapsed, budget)
			}
			if timer != 0 {
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
	// The DPU side runs no workers (one poller per connection); the host side
	// runs with and without its duplex pool.
	for _, opts := range []dpurpc.StackOptions{{}, {ServerCfg: dpurpc.Config{HostWorkers: 2}}} {
		t.Run(fmt.Sprintf("dpu0_host%d", opts.ServerCfg.HostWorkers), func(t *testing.T) {
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
	opts := dpurpc.StackOptions{ServerCfg: dpurpc.Config{HostWorkers: 2}}
	opts.ClientCfg.Credits = 2
	opts.ClientCfg.CQDepth = 2 * dpurpc.DefaultServerConfig().Credits
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
		s := smp.Series()[name+`{conn="0",side="dpu"}`]
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

// The host's response sender exports the same conn_* series as the DPU's
// request sender, under side="host". Scraped the way /metrics serves them
// (sample, then render the registry text), the host's credits must fall
// below their budget while responses are in flight.
func TestHostConnGauges(t *testing.T) {
	schema, err := dpurpc.ParseSchema("greeter.proto", greeterProto)
	if err != nil {
		t.Fatal(err)
	}
	opts := dpurpc.StackOptions{ServerCfg: dpurpc.Config{HostWorkers: 2}}
	opts.ServerCfg.Credits = 8
	stack, err := dpurpc.NewOffloadedStack(schema, greeterImpls(t, schema), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	reg := metrics.NewRegistry()
	smp := metrics.NewSampler(time.Hour, 4, reg) // sampled by hand
	stack.RegisterGauges(smp)
	scrape := func(series string) float64 {
		t.Helper()
		smp.SampleOnce()
		for _, line := range strings.Split(reg.Render(), "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return f
			}
		}
		t.Fatalf("/metrics has no %s", series)
		return 0
	}
	const credits = `conn_credits{conn="0",side="host"}`
	if v := scrape(credits); v != 8 {
		t.Fatalf("idle %s = %v, want the full budget of 8", credits, v)
	}
	req := schema.NewMessage("demo.HelloRequest")
	req.SetString("name", "h")
	payload := req.Marshal(nil)
	call := stack.Handler()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if status, _ := call("/demo.Greeter/Hello", payload); status != 0 {
					t.Errorf("status %d", status)
					return
				}
			}
		}()
	}
	defer func() { stop.Store(true); wg.Wait() }()
	deadline := time.Now().Add(5 * time.Second)
	for scrape(credits) >= 8 {
		if time.Now().After(deadline) {
			t.Fatalf("%s stayed at 8 under load", credits)
		}
		time.Sleep(100 * time.Microsecond)
	}
	for _, name := range []string{"conn_send_queue_depth", "conn_unacked_blocks", "conn_acks_pending", "conn_outstanding_requests"} {
		if v := scrape(name + `{conn="0",side="host"}`); v < 0 {
			t.Errorf("%s{side=\"host\"} = %v", name, v)
		}
	}
}
