package offload

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/fault"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/xrpc"
)

// chaosDrainReport is what each DPU driver goroutine observed at teardown.
type chaosDrainReport struct {
	broken      error
	drainErr    error
	outstanding int
	counters    rpcrdma.Counters
	stats       fault.Stats
	// dumped is whether the connection's flight recorder has dumped, read
	// before the DPU server's Close aborts it.
	dumped bool
}

// TestChaosSoak drives the full duplex stack (one DPU poller per connection
// + host duplex response pipeline, two connections) under
// randomized-but-seeded fault plans and pins the failure contract: every
// call resolves exactly once, either OK with its own payload or with a
// typed transient status (UNAVAILABLE / DEADLINE_EXCEEDED) — no hangs, no
// silent drops, no leaked protocol entries — and a connection that reaps a
// request or breaks has dumped its flight recorder. Run under -race this is
// the failure machinery's synchronization pin.
func TestChaosSoak(t *testing.T) {
	for _, c := range []struct {
		plan fault.Plan
		// batch > 0 coalesces that many messages per doorbell on both
		// sides, so faults land inside multi-message batches.
		batch int
	}{
		{plan: fault.Plan{ErrorRate: 0.03, Seed: 11}},
		{plan: fault.Plan{ErrorRate: 0.01, DelayRate: 0.05, Delay: 200 * time.Microsecond, Seed: 22}},
		{plan: fault.Plan{ErrorRate: 0.05, DelayRate: 0.02, Delay: 500 * time.Microsecond,
			DropRate: 0.002, Seed: 33}},
		// Aggressive drops: blocks vanish, requests hit the deadline
		// reaper, the next block trips the seq-gap detector and the
		// connection dies — the workload must still resolve every call.
		{plan: fault.Plan{ErrorRate: 0.02, DropRate: 0.05, Seed: 44}},
		{plan: fault.Plan{ErrorRate: 0.05, DelayRate: 0.025, Delay: 200 * time.Microsecond,
			DropRate: 0.0025, Seed: 55}, batch: 8},
	} {
		name := c.plan.String()
		if c.batch > 0 {
			name += fmt.Sprintf(" batch=%d", c.batch)
		}
		t.Run(name, func(t *testing.T) { chaosSoak(t, c.plan, c.batch) })
	}
}

func chaosSoak(t *testing.T, plan fault.Plan, batch int) {
	table, reg := echoEnv(t)
	respDesc := reg.Message("echopb.Resp")
	impls := map[string]Impl{
		"echopb.Echo": {
			"Call": func(req abi.View) (*protomsg.Message, uint16) {
				m := protomsg.New(respDesc)
				m.SetUint64("id", req.U64Name("id"))
				m.SetString("data", string(req.StrName("data")))
				return m, 0
			},
		},
	}
	ccfg, scfg := smallTestCfg()
	// Blocking CQ waits instead of busy polling: the soak runs a dozen
	// goroutines and busy pollers starve the workers on small CI machines.
	ccfg.BusyPoll, scfg.BusyPoll = false, false
	ccfg.WaitTimeout, scfg.WaitTimeout = 100*time.Microsecond, 100*time.Microsecond
	const requestTimeout = 250 * time.Millisecond
	ccfg.RequestTimeout = requestTimeout
	scfg.HostWorkers = 2
	ccfg.CommitBatch, scfg.CommitBatch = batch, batch
	ccfg.FlightRecorder = 256
	d, err := NewDeploymentWith(table, impls, DeployConfig{
		Connections: 2, ClientCfg: ccfg, ServerCfg: scfg,
		ClientFaults: &plan,
		ServerFaults: &plan,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Host poller: one conn dying (seq gap, CQ poison) must not stop
	// service for the others, so broken-connection errors are tolerated.
	stop := make(chan struct{})
	var hostWG sync.WaitGroup
	hostWG.Add(1)
	go func() {
		defer hostWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.ProgressHost(); err != nil && !errors.Is(err, rpcrdma.ErrConnBroken) {
				return
			}
		}
	}()

	// DPU drivers: progress each connection until the workload ends, then
	// drain gracefully and report leaks. A broken connection shuts its DPU
	// server down (typed failures for everything pending) and the driver
	// parks until the workload finishes against the surviving conns.
	reports := make(chan chaosDrainReport, len(d.DPUs))
	for _, dpu := range d.DPUs {
		go func(dpu *DPUServer) {
			for {
				select {
				case <-stop:
					rep := chaosDrainReport{broken: dpu.Client().Broken()}
					if rep.broken == nil {
						rep.drainErr = dpu.Client().Drain(5 * time.Second)
						rep.outstanding = dpu.Client().Outstanding()
					}
					rep.counters = dpu.Client().Counters
					rep.stats = dpu.Client().FaultInjector().Stats()
					rep.dumped = dpu.Client().LastFlightDump() != nil
					dpu.Close()
					reports <- rep
					return
				default:
					if _, err := dpu.Progress(); err != nil {
						rep := chaosDrainReport{broken: dpu.Client().Broken(),
							dumped: dpu.Client().LastFlightDump() != nil}
						dpu.Close() // fails everything pending, typed
						<-stop
						reports <- rep
						return
					}
				}
			}
		}(dpu)
	}

	const clientsPerConn = 2
	const callsPerClient = 100
	reqDesc := reg.Message("echopb.Req")
	var ok, typed, wrong atomic.Uint64
	var workWG sync.WaitGroup
	var next atomic.Uint64
	for _, dpu := range d.DPUs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := xrpc.NewAsyncServer(dpu.XRPCHandler())
		go srv.Serve(ln)
		defer srv.Close()
		for c := 0; c < clientsPerConn; c++ {
			cl, err := xrpc.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			cl.SetRetryPolicy(xrpc.RetryPolicy{
				MaxAttempts: 4, BaseBackoff: 200 * time.Microsecond, RetryBudget: 50,
			})
			workWG.Add(1)
			go func(cl *xrpc.Client) {
				defer workWG.Done()
				for i := 0; i < callsPerClient; i++ {
					id := next.Add(1)
					m := protomsg.New(reqDesc)
					m.SetUint64("id", id)
					m.SetString("data", echoData(id))
					// Per-attempt timeout far above RequestTimeout: an
					// expired xRPC deadline here would mean a call hung
					// instead of failing typed.
					status, payload, err := cl.CallRetry("/echopb.Echo/Call", m.Marshal(nil), 10*time.Second)
					switch {
					case err != nil:
						wrong.Add(1)
						t.Errorf("call %d: transport error %v", id, err)
					case status == xrpc.StatusOK:
						got := protomsg.New(respDesc)
						if err := got.Unmarshal(payload); err != nil ||
							got.Uint64("id") != id ||
							string(got.GetString("data")) != echoData(id) {
							wrong.Add(1)
							t.Errorf("call %d: wrong payload", id)
						} else {
							ok.Add(1)
						}
					case status == xrpc.StatusUnavailable || status == xrpc.StatusDeadlineExceeded:
						typed.Add(1)
					default:
						wrong.Add(1)
						t.Errorf("call %d: unexpected status %s", id, xrpc.StatusText(status))
					}
				}
			}(cl)
		}
	}

	finished := make(chan struct{})
	go func() { workWG.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(90 * time.Second):
		t.Fatal("chaos soak hung")
	}
	close(stop)

	var retried uint64
	broken := 0
	for range d.DPUs {
		rep := <-reports
		if rep.broken != nil {
			if !errors.Is(rep.broken, rpcrdma.ErrConnBroken) {
				t.Errorf("connection failed untyped: %v", rep.broken)
			}
			if !rep.dumped {
				t.Errorf("connection broke without a flight dump: %v", rep.broken)
			}
			broken++
			continue
		}
		if rep.drainErr != nil {
			t.Errorf("drain failed on healthy connection: %v", rep.drainErr)
		}
		if rep.outstanding != 0 {
			t.Errorf("leaked %d outstanding protocol entries", rep.outstanding)
		}
		retried += rep.counters.SendFaultRetries
		if rep.counters.RequestsTimedOut > 0 && !rep.dumped {
			t.Errorf("%d requests reaped at their deadline but no flight dump", rep.counters.RequestsTimedOut)
		}
		t.Logf("conn: injected %+v, send-fault retries %d, timed out %d, late dropped %d",
			rep.stats, rep.counters.SendFaultRetries,
			rep.counters.RequestsTimedOut, rep.counters.LateResponsesDropped)
	}
	hostWG.Wait()
	d.Close()

	total := uint64(len(d.DPUs)) * clientsPerConn * callsPerClient
	if got := ok.Load() + typed.Load() + wrong.Load(); got != total {
		t.Errorf("resolved %d of %d calls", got, total)
	}
	if ok.Load() == 0 {
		t.Error("no call succeeded under chaos")
	}
	t.Logf("plan %s: %d ok, %d typed failures, %d transparent send retries, %d conns broken",
		plan.String(), ok.Load(), typed.Load(), retried, broken)
}
