package offload

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/fabric"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/rdma"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/xrpc"
)

// TestReconnectResumesTransparently breaks a connection repeatedly under
// concurrent load and requires every call to resolve exactly once — OK with
// its own payload, or typed UNAVAILABLE absorbed by a retry — with the DPU
// server adopting replacement connections instead of staying broken. Runs
// both host response paths: the serial poller and the duplex pool (whose
// in-flight handlers finish against a connection that has since died).
func TestReconnectResumesTransparently(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
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
			ccfg.RequestTimeout = 2 * time.Second
			scfg.HostWorkers = workers
			d, err := NewDeploymentWith(table, impls, DeployConfig{
				Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
				ReconnectBudget: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

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
					n, err := d.Poller.Progress()
					if err != nil && !errors.Is(err, rpcrdma.ErrConnBroken) {
						return
					}
					if n == 0 {
						runtime.Gosched()
					}
				}
			}()
			group := NewPollerGroup(d.DPUs, 1)
			group.Start()

			dpu := d.DPUs[0]
			h := dpu.XRPCHandler().Copying()
			reqDesc := reg.Message("echopb.Req")
			const drivers = 4
			const callsPerDriver = 400
			var ok, typed, untyped atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < drivers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < callsPerDriver; i++ {
						id := uint64(w*callsPerDriver + i + 1)
						m := protomsg.New(reqDesc)
						m.SetUint64("id", id)
						m.SetString("data", echoData(id))
						payload := m.Marshal(nil)
						var status uint16
						var resp []byte
						backoff := 100 * time.Microsecond
						for attempt := 0; attempt < 8; attempt++ {
							status, resp = h("/echopb.Echo/Call", payload)
							if status != xrpc.StatusUnavailable &&
								status != xrpc.StatusDeadlineExceeded {
								break
							}
							time.Sleep(backoff)
							backoff *= 2
						}
						switch status {
						case xrpc.StatusOK:
							got := protomsg.New(respDesc)
							if err := got.Unmarshal(resp); err != nil ||
								got.Uint64("id") != id ||
								string(got.GetString("data")) != echoData(id) {
								untyped.Add(1)
							} else {
								ok.Add(1)
							}
						case xrpc.StatusUnavailable, xrpc.StatusDeadlineExceeded:
							typed.Add(1)
						default:
							untyped.Add(1)
						}
					}
				}(w)
			}

			// Kill the connection repeatedly while the drivers run.
			killDone := make(chan struct{})
			go func() {
				defer close(killDone)
				for k := 0; k < 10; k++ {
					group.Kill(0)
					time.Sleep(2 * time.Millisecond)
					if group.Dead(0) {
						return
					}
				}
			}()
			wg.Wait()
			<-killDone
			group.Stop()
			close(stop)
			hostWG.Wait()

			total := uint64(drivers * callsPerDriver)
			if got := ok.Load() + typed.Load() + untyped.Load(); got != total {
				t.Fatalf("resolved %d of %d calls", got, total)
			}
			if n := untyped.Load(); n > 0 {
				t.Fatalf("%d calls resolved wrong (mismatched echo or untyped status)", n)
			}
			st := dpu.Stats()
			if st.Reconnects == 0 {
				t.Fatal("connection was killed but never reconnected")
			}
			if group.Dead(0) {
				t.Fatalf("connection died terminally: %v", group.Err(0))
			}
			// Retries absorb breaks: the overwhelming majority must succeed.
			if ok.Load() < total*9/10 {
				t.Fatalf("only %d/%d calls succeeded across %d reconnects",
					ok.Load(), total, st.Reconnects)
			}
			t.Logf("workers=%d: ok=%d typed=%d reconnects=%d redialFails=%d",
				workers, ok.Load(), typed.Load(), st.Reconnects, st.RedialFails)
		})
	}
}

// TestReconnectFlightDumpBudget pins the flight-recorder dump cap across
// reconnects: the budget (8 automatic dumps per connection) is adopted by
// each replacement connection rather than reset, so a connection stuck in a
// break/redial loop cannot flood the sink.
func TestReconnectFlightDumpBudget(t *testing.T) {
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
	var dumps atomic.Uint64
	ccfg, scfg := smallTestCfg()
	ccfg.FlightRecorder = 64
	ccfg.FlightSink = func(rpcrdma.FlightDump) { dumps.Add(1) }
	ccfg.RequestTimeout = 2 * time.Second
	d, err := NewDeploymentWith(table, impls, DeployConfig{
		Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
		ReconnectBudget: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

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
			n, err := d.Poller.Progress()
			if err != nil && !errors.Is(err, rpcrdma.ErrConnBroken) {
				return
			}
			if n == 0 {
				runtime.Gosched()
			}
		}
	}()
	group := NewPollerGroup(d.DPUs, 1)
	group.Start()

	dpu := d.DPUs[0]
	h := dpu.XRPCHandler().Copying()
	reqDesc := reg.Message("echopb.Req")
	call := func(id uint64) uint16 {
		m := protomsg.New(reqDesc)
		m.SetUint64("id", id)
		m.SetString("data", echoData(id))
		payload := m.Marshal(nil)
		var status uint16
		for attempt := 0; attempt < 16; attempt++ {
			status, _ = h("/echopb.Echo/Call", payload)
			if status != xrpc.StatusUnavailable && status != xrpc.StatusDeadlineExceeded {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		return status
	}

	const breaks = 12 // > the 8-dump budget
	for k := 0; k < breaks; k++ {
		if s := call(uint64(k + 1)); s != xrpc.StatusOK {
			t.Fatalf("break %d: call failed with status %d", k, s)
		}
		want := dpu.Stats().Reconnects + 1
		group.Kill(0)
		deadline := time.Now().Add(5 * time.Second)
		for dpu.Stats().Reconnects < want {
			if time.Now().After(deadline) {
				t.Fatalf("break %d: no reconnect (dead=%v err=%v)", k, group.Dead(0), group.Err(0))
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	group.Stop()
	close(stop)
	hostWG.Wait()

	if n := dumps.Load(); n == 0 || n > 8 {
		t.Fatalf("flight dumps = %d across %d breaks, want 1..8 (budget spans reconnects)", dumps.Load(), breaks)
	}
	t.Logf("%d breaks produced %d flight dumps", breaks, dumps.Load())
}

// TestReconnectBudgetExhausted pins the fail-fast contract against a
// hard-down peer: when every redial fails, the budget makes the break
// terminal — pending and queued requests resolve typed UNAVAILABLE (not
// DEADLINE_EXCEEDED, not a hang) and Progress surfaces
// ErrReconnectExhausted to the poller's owner.
func TestReconnectBudgetExhausted(t *testing.T) {
	table, reg := echoEnv(t)
	respDesc := reg.Message("echopb.Resp")
	impls := map[string]Impl{
		"echopb.Echo": {
			"Call": func(req abi.View) (*protomsg.Message, uint16) {
				m := protomsg.New(respDesc)
				m.SetUint64("id", req.U64Name("id"))
				return m, 0
			},
		},
	}
	link := fabric.NewLink()
	dpuDev := rdma.NewDevice("dpu", link, fabric.DPUToHost)
	hostDev := rdma.NewDevice("host", link, fabric.HostToDPU)
	dpuTable, err := Handshake(hostDev, dpuDev, table)
	if err != nil {
		t.Fatal(err)
	}
	host, err := NewHostServer(table, impls)
	if err != nil {
		t.Fatal(err)
	}
	ccfg, scfg := smallTestCfg()
	ccfg = ccfg.WithDefaults(true)
	scfg = scfg.WithDefaults(false)
	poller := rpcrdma.NewServerPoller(scfg)
	defer poller.Close()
	client, _, err := rpcrdma.Connect(dpuDev, hostDev, ccfg, scfg, poller, host.Handler())
	if err != nil {
		t.Fatal(err)
	}
	redialErr := errors.New("host is down")
	dpu, err := newDPUServer(dpuTable, client, DeployConfig{
		ReconnectBudget:  3,
		ReconnectBackoff: time.Microsecond,
	}, func() (*rpcrdma.ClientConn, error) { return nil, redialErr }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dpu.Close()

	// One call in flight when the break lands, one submitted while broken:
	// both must resolve typed.
	reqDesc := reg.Message("echopb.Req")
	payload := func(id uint64) []byte {
		m := protomsg.New(reqDesc)
		m.SetUint64("id", id)
		m.SetString("data", "x")
		return m.Marshal(nil)
	}
	type result struct {
		status uint16
		ok     bool
	}
	results := make(chan result, 2)
	h := dpu.XRPCHandler().Copying()
	go func() {
		s, _ := h("/echopb.Echo/Call", payload(1))
		results <- result{status: s}
	}()
	// Let the first call post, then break the connection. The host poller is
	// deliberately NOT progressed here, so the request stays outstanding —
	// in flight when the break lands.
	deadline := time.Now().Add(5 * time.Second)
	for dpu.Client().Outstanding() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first call never reached the server")
		}
		if _, err := dpu.Progress(); err != nil {
			t.Fatalf("premature progress error: %v", err)
		}
		runtime.Gosched()
	}
	dpu.Break()
	go func() {
		s, _ := h("/echopb.Echo/Call", payload(2))
		results <- result{status: s}
	}()

	var terminal error
	deadline = time.Now().Add(5 * time.Second)
	for terminal == nil {
		if time.Now().After(deadline) {
			t.Fatal("reconnect budget never exhausted")
		}
		_, err := dpu.Progress()
		if err != nil {
			terminal = err
		}
		poller.Progress()
	}
	if !errors.Is(terminal, ErrReconnectExhausted) {
		t.Fatalf("terminal error = %v, want ErrReconnectExhausted", terminal)
	}
	// The poller's owner closes the server on a terminal error (PollerGroup
	// does exactly this); that is what resolves submitters that raced the
	// final drain.
	dpu.Close()
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.status != xrpc.StatusUnavailable {
				t.Fatalf("call resolved with status %d, want UNAVAILABLE", r.status)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("call never resolved after terminal break")
		}
	}
	if st := dpu.Stats(); st.RedialFails != 3 || st.Reconnects != 0 {
		t.Fatalf("stats = %d redial fails / %d reconnects, want 3 / 0",
			st.RedialFails, st.Reconnects)
	}
}

// TestFailStatusMapping pins the typed-status contract: every transient
// transport condition maps to UNAVAILABLE (back off and retry), deadline
// expiry to DEADLINE_EXCEEDED, and anything else to INTERNAL.
func TestFailStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want uint16
	}{
		{ErrShuttingDown, xrpc.StatusUnavailable},
		{ErrAdmissionShed, xrpc.StatusUnavailable},
		{ErrReconnectExhausted, xrpc.StatusUnavailable},
		{rpcrdma.ErrConnBroken, xrpc.StatusUnavailable},
		{rpcrdma.ErrSendBufferFull, xrpc.StatusUnavailable},
		{fmt.Errorf("wrapped: %w", rpcrdma.ErrSendBufferFull), xrpc.StatusUnavailable},
		{rpcrdma.ErrRequestTimeout, xrpc.StatusDeadlineExceeded},
		{errors.New("handler exploded"), xrpc.StatusInternal},
	}
	for _, c := range cases {
		if got := failStatus(c.err); got != c.want {
			t.Errorf("failStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestDPUAdmissionShed pins the DPU-side admission gate: a burst beyond
// AdmitMaxInflight is rejected with UNAVAILABLE before entering the
// pipeline — counted as sheds, never surfacing as DEADLINE_EXCEEDED or a
// queue that outlives the burst.
func TestDPUAdmissionShed(t *testing.T) {
	table, reg := echoEnv(t)
	respDesc := reg.Message("echopb.Resp")
	impls := map[string]Impl{
		"echopb.Echo": {
			"Call": func(req abi.View) (*protomsg.Message, uint16) {
				m := protomsg.New(respDesc)
				m.SetUint64("id", req.U64Name("id"))
				return m, 0
			},
		},
	}
	ccfg, scfg := smallTestCfg()
	d, err := NewDeploymentWith(table, impls, DeployConfig{
		Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
		DPUAdmitMaxInflight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

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
			n, err := d.Poller.Progress()
			if err != nil {
				return
			}
			if n == 0 {
				runtime.Gosched()
			}
		}
	}()
	group := NewPollerGroup(d.DPUs, 1)
	group.Start()

	dpu := d.DPUs[0]
	h := dpu.XRPCHandler().Copying()
	reqDesc := reg.Message("echopb.Req")
	var ok, unavailable, other atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				m := protomsg.New(reqDesc)
				m.SetUint64("id", uint64(w*20+i+1))
				m.SetString("data", "x")
				status, _ := h("/echopb.Echo/Call", m.Marshal(nil))
				switch status {
				case xrpc.StatusOK:
					ok.Add(1)
				case xrpc.StatusUnavailable:
					unavailable.Add(1)
				default:
					other.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	group.Stop()
	close(stop)
	hostWG.Wait()

	if n := other.Load(); n > 0 {
		t.Fatalf("%d calls resolved with a status other than OK/UNAVAILABLE", n)
	}
	st := dpu.Stats()
	if st.Sheds == 0 {
		t.Fatal("16 concurrent drivers against AdmitMaxInflight=2 shed nothing")
	}
	if unavailable.Load() == 0 {
		t.Fatal("sheds counted but no caller saw UNAVAILABLE")
	}
	if ok.Load() == 0 {
		t.Fatal("admission gate starved every call")
	}
	t.Logf("ok=%d shed=%d (stats sheds=%d)", ok.Load(), unavailable.Load(), st.Sheds)
}
