package offload

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/adt"
	"dpurpc/internal/fabric"
	"dpurpc/internal/fault"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/protodsl"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/rdma"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// benchImpl implements the benchmark service: verify the request view and
// return an empty response, counting what was seen.
type benchImpl struct {
	env        *workload.Env
	smallSeen  atomic.Uint64
	intsSum    atomic.Uint64
	charsBytes atomic.Uint64
}

func (b *benchImpl) impls() map[string]Impl {
	return map[string]Impl{
		"benchpb.Bench": {
			"CallSmall": func(req abi.View) (*protomsg.Message, uint16) {
				if !req.HasName("id") || req.U32Name("id") == 0 {
					return nil, StatusInvalidArgument
				}
				b.smallSeen.Add(1)
				return nil, 0
			},
			"CallInts": func(req abi.View) (*protomsg.Message, uint16) {
				var sum uint64
				for i, n := 0, req.LenName("values"); i < n; i++ {
					sum += req.NumAtName("values", i)
				}
				b.intsSum.Add(sum)
				return nil, 0
			},
			"CallChars": func(req abi.View) (*protomsg.Message, uint16) {
				b.charsBytes.Add(uint64(len(req.StrName("data"))))
				return nil, 0
			},
			"Echo": func(req abi.View) (*protomsg.Message, uint16) {
				out := protomsg.New(b.env.CharArray)
				out.SetString("data", string(req.StrName("data")))
				return out, 0
			},
			"EchoBlob": func(req abi.View) (*protomsg.Message, uint16) {
				out := protomsg.New(b.env.Blob)
				out.SetBytes("data", req.StrName("data"))
				return out, 0
			},
		},
	}
}

func smallTestCfg() (rpcrdma.Config, rpcrdma.Config) {
	c := rpcrdma.Config{BlockSize: 8192, Credits: 32, SBufSize: 1 << 20, CQDepth: 128, BusyPoll: true}
	return c, c
}

func TestHandshakeTransmitsADT(t *testing.T) {
	env := workload.NewEnv()
	link := fabric.NewLink()
	hostDev := rdma.NewDevice("host", link, fabric.HostToDPU)
	dpuDev := rdma.NewDevice("dpu", link, fabric.DPUToHost)
	got, err := Handshake(hostDev, dpuDev, env.Table)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Table.CheckCompatible(got); err != nil {
		t.Fatal(err)
	}
	// The transfer is accounted on the host->dpu direction.
	if link.Stats(fabric.HostToDPU).Bytes == 0 {
		t.Error("handshake bytes not accounted")
	}
}

func TestHandshakeRejectsIncompatibleTable(t *testing.T) {
	// Host and DPU built from diverged schemas: the handshake must refuse.
	f1, _ := protodsl.Parse("a.proto", `syntax="proto3"; package p; message M { uint32 a = 1; }`)
	r1 := protodesc.NewRegistry()
	r1.Register(f1)
	t1, _ := adt.Build(r1)

	f2, _ := protodsl.Parse("b.proto", `syntax="proto3"; package p; message M { uint64 a = 1; }`)
	r2 := protodesc.NewRegistry()
	r2.Register(f2)
	t2, _ := adt.Build(r2)

	if err := t1.CheckCompatible(t2); err == nil {
		t.Fatal("diverged tables reported compatible")
	}
}

// pumpDeployment drives all pollers until the condition holds or it stalls.
func pumpDeployment(t *testing.T, d *Deployment, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !done() && time.Now().Before(deadline) {
		for _, dpu := range d.DPUs {
			if _, err := dpu.Progress(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.Poller.Progress(); err != nil {
			t.Fatal(err)
		}
	}
	if !done() {
		t.Fatal("deployment stalled")
	}
}

func TestOffloadedDatapathEndToEnd(t *testing.T) {
	env := workload.NewEnv()
	impl := &benchImpl{env: env}
	ccfg, scfg := smallTestCfg()
	d, err := NewDeploymentWith(env.Table, impl.impls(), DeployConfig{Connections: 1, ClientCfg: ccfg, ServerCfg: scfg})
	if err != nil {
		t.Fatal(err)
	}
	dpu := d.DPUs[0]
	rng := mt19937.New(mt19937.DefaultSeed)

	// Drive requests through the DPU's xRPC handler from a separate
	// goroutine (as the xRPC connection goroutines would).
	handler := dpu.XRPCHandler().Copying()
	const perScenario = 50
	var wg sync.WaitGroup
	var failures atomic.Uint64
	var intsWant uint64
	msgs := map[workload.Scenario][][]byte{}
	for _, s := range workload.Scenarios() {
		for i := 0; i < perScenario; i++ {
			m := env.Gen(s, rng)
			if s == workload.ScenarioInts {
				for _, v := range m.Nums("values") {
					intsWant += v
				}
			}
			msgs[s] = append(msgs[s], m.Marshal(nil))
		}
	}
	wg.Add(len(workload.Scenarios()))
	for _, s := range workload.Scenarios() {
		s := s
		go func() {
			defer wg.Done()
			name := xrpc.FullMethodName("benchpb.Bench",
				env.Service.Methods[s.Method()].Name)
			for _, data := range msgs[s] {
				status, _ := handler(name, data)
				if status != xrpc.StatusOK {
					failures.Add(1)
				}
			}
		}()
	}

	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-finished:
			goto done
		case <-deadline:
			t.Fatal("datapath timed out")
		default:
		}
		for _, dd := range d.DPUs {
			if _, err := dd.Progress(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.Poller.Progress(); err != nil {
			t.Fatal(err)
		}
	}
done:
	if failures.Load() != 0 {
		t.Fatalf("%d calls failed", failures.Load())
	}
	if impl.smallSeen.Load() != perScenario {
		t.Errorf("small seen = %d", impl.smallSeen.Load())
	}
	if impl.intsSum.Load() != intsWant {
		t.Errorf("ints sum = %d want %d (values corrupted in flight)", impl.intsSum.Load(), intsWant)
	}
	if impl.charsBytes.Load() != perScenario*workload.CharsCount {
		t.Errorf("chars bytes = %d", impl.charsBytes.Load())
	}
	// Host did zero deserialization work; the DPU did it all.
	st := dpu.Stats()
	if st.Deser.Messages == 0 {
		t.Error("DPU performed no deserialization")
	}
	if st.Requests != 3*perScenario || st.Responses != 3*perScenario {
		t.Errorf("dpu stats: %+v", st)
	}
	hs := d.Host.Stats()
	if hs.Requests != 3*perScenario {
		t.Errorf("host requests = %d", hs.Requests)
	}
}

func TestOffloadOverRealTCP(t *testing.T) {
	env := workload.NewEnv()
	impl := &benchImpl{env: env}
	ccfg, scfg := smallTestCfg()
	d, err := NewDeploymentWith(env.Table, impl.impls(), DeployConfig{Connections: 1, ClientCfg: ccfg, ServerCfg: scfg})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go d.DPUs[0].Run(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := d.Poller.Progress(); err != nil {
					return
				}
			}
		}
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := xrpc.NewAsyncServer(d.DPUs[0].XRPCHandler())
	go srv.Serve(ln)
	defer srv.Close()

	client, err := xrpc.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := mt19937.New(1)
	for i := 0; i < 20; i++ {
		m := env.GenSmall(rng)
		status, resp, err := client.Call("/benchpb.Bench/CallSmall", m.Marshal(nil))
		if err != nil || status != xrpc.StatusOK {
			t.Fatalf("call %d: status=%d err=%v", i, status, err)
		}
		if len(resp) != 0 {
			t.Errorf("expected empty response, got %d bytes", len(resp))
		}
	}
	// Unknown method handled at the DPU without involving the host.
	status, _, err := client.Call("/benchpb.Bench/Nope", nil)
	if err != nil || status != xrpc.StatusUnimplemented {
		t.Errorf("unknown method: %d %v", status, err)
	}
	// Malformed payload rejected at the DPU (Measure fails).
	status, _, err = client.Call("/benchpb.Bench/CallSmall", []byte{0xff})
	if err != nil || status != xrpc.StatusInvalidArgument {
		t.Errorf("malformed: %d %v", status, err)
	}
	if impl.smallSeen.Load() != 20 {
		t.Errorf("host saw %d small calls", impl.smallSeen.Load())
	}
}

func TestBaselineServerEquivalence(t *testing.T) {
	// The baseline (host CPU deserialization) must produce identical
	// observable behaviour to the offloaded path.
	env := workload.NewEnv()
	implA := &benchImpl{env: env}
	base, err := NewBaselineServer(env.Table, implA.impls())
	if err != nil {
		t.Fatal(err)
	}
	h := base.XRPCHandler()
	rng := mt19937.New(mt19937.DefaultSeed)
	var intsWant uint64
	for i := 0; i < 30; i++ {
		m := env.GenIntsCalibrated(rng)
		for _, v := range m.Nums("values") {
			intsWant += v
		}
		status, resp := h("/benchpb.Bench/CallInts", m.Marshal(nil))
		if status != xrpc.StatusOK || len(resp) != 0 {
			t.Fatalf("call %d: %d", i, status)
		}
	}
	if implA.intsSum.Load() != intsWant {
		t.Error("baseline sums diverge")
	}
	st := base.Stats()
	if st.Requests != 30 || st.Deser.Messages != 30 {
		t.Errorf("baseline stats: %+v", st)
	}
	if st.WireBytes != 30*workload.CalibratedIntsWireSize {
		t.Errorf("wire bytes = %d", st.WireBytes)
	}
	// Unknown and malformed.
	if status, _ := h("/nope/X", nil); status != xrpc.StatusUnimplemented {
		t.Error("unknown method accepted")
	}
	if status, _ := h("/benchpb.Bench/CallInts", []byte{0xff}); status != xrpc.StatusInvalidArgument {
		t.Error("malformed accepted")
	}
	// A handler's error status answers the call: the empty Small decodes,
	// and CallSmall refuses id 0.
	if status, _ := h("/benchpb.Bench/CallSmall", nil); status != StatusInvalidArgument || base.Stats().Requests != 31 {
		t.Errorf("handler error: status %d after %d decoded requests", status, base.Stats().Requests)
	}
}

func TestHostHandlerStatusPaths(t *testing.T) {
	env := workload.NewEnv()
	impls := map[string]Impl{
		"benchpb.Bench": {
			"CallSmall": func(req abi.View) (*protomsg.Message, uint16) { return nil, StatusInternal },
			"CallInts":  func(req abi.View) (*protomsg.Message, uint16) { return nil, 0 },
			"CallChars": func(req abi.View) (*protomsg.Message, uint16) {
				// Non-empty response: echo length back as a Small.
				out := protomsg.New(env.Small)
				out.SetUint32("id", uint32(len(req.StrName("data"))))
				return out, 0
			},
			"Echo":     func(req abi.View) (*protomsg.Message, uint16) { return nil, 0 },
			"EchoBlob": func(req abi.View) (*protomsg.Message, uint16) { return nil, 0 },
		},
	}
	ccfg, scfg := smallTestCfg()
	d, err := NewDeploymentWith(env.Table, impls, DeployConfig{Connections: 1, ClientCfg: ccfg, ServerCfg: scfg})
	if err != nil {
		t.Fatal(err)
	}
	dpu := d.DPUs[0]
	handler := dpu.XRPCHandler().Copying()
	type result struct {
		status uint16
		resp   []byte
	}
	results := make(chan result, 2)
	rng := mt19937.New(1)
	go func() {
		st, resp := handler("/benchpb.Bench/CallSmall", env.GenSmall(rng).Marshal(nil))
		results <- result{st, resp}
	}()
	go func() {
		st, resp := handler("/benchpb.Bench/CallChars", env.GenChars(mt19937.New(2), 100).Marshal(nil))
		results <- result{st, resp}
	}()
	got := map[uint16][]byte{}
	deadline := time.After(10 * time.Second)
	for len(got) < 2 {
		select {
		case r := <-results:
			got[r.status] = r.resp
		case <-deadline:
			t.Fatal("timed out")
		default:
			dpu.Progress()
			d.Poller.Progress()
		}
	}
	if _, ok := got[StatusInternal]; !ok {
		t.Error("handler error status not propagated")
	}
	okResp, ok := got[xrpc.StatusOK]
	if !ok {
		t.Fatal("no OK response")
	}
	out := protomsg.New(env.Small)
	if err := out.Unmarshal(okResp); err != nil {
		t.Fatal(err)
	}
	if out.Uint32("id") != 100 {
		t.Errorf("response id = %d", out.Uint32("id"))
	}
	hs := d.Host.Stats()
	if hs.HandlerErrors != 1 || hs.ResponseMsgs != 1 || hs.ResponseBytes == 0 {
		t.Errorf("host stats: %+v", hs)
	}
}

func TestMissingImplementationRejected(t *testing.T) {
	env := workload.NewEnv()
	if _, err := NewHostServer(env.Table, map[string]Impl{}, DeployConfig{}); err == nil {
		t.Error("empty impls accepted")
	}
	if _, err := NewHostServer(env.Table, map[string]Impl{
		"benchpb.Bench": {"CallSmall": func(req abi.View) (*protomsg.Message, uint16) { return nil, 0 }},
	}, DeployConfig{}); err == nil {
		t.Error("partial impls accepted")
	}
	if _, err := NewBaselineServer(env.Table, map[string]Impl{}); err == nil {
		t.Error("baseline empty impls accepted")
	}
}

// A deployment that fails to build leaves no goroutine behind. An unknown
// cache method must fail before any connection is wired: found after
// connection 0, it left that connection's duplex workers running.
func TestFailedDeploymentLeaksNoGoroutines(t *testing.T) {
	table, _ := echoEnv(t)
	impls := map[string]Impl{"echopb.Echo": {
		"Call": func(abi.View) (*protomsg.Message, uint16) { return nil, 0 },
	}}
	ccfg, scfg := smallTestCfg()
	scfg.HostWorkers = 4
	before := runtime.NumGoroutine()
	_, err := NewDeploymentWith(table, impls, DeployConfig{
		Connections: 2, ClientCfg: ccfg, ServerCfg: scfg,
		CacheMethods: []string{"/nope.X/Y"},
	})
	if err == nil {
		t.Fatal("unknown cache method accepted")
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed build, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMultiConnectionDeployment(t *testing.T) {
	env := workload.NewEnv()
	impl := &benchImpl{env: env}
	ccfg, scfg := smallTestCfg()
	const conns = 4
	d, err := NewDeploymentWith(env.Table, impl.impls(), DeployConfig{Connections: conns, ClientCfg: ccfg, ServerCfg: scfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.DPUs) != conns {
		t.Fatalf("got %d DPU servers", len(d.DPUs))
	}
	var done atomic.Uint64
	const per = 40
	for i, dpu := range d.DPUs {
		handler := dpu.XRPCHandler().Copying()
		go func(i int, h xrpc.ServerHandler) {
			rng := mt19937.New(uint32(3 + i)) // one source per goroutine
			for j := 0; j < per; j++ {
				data := env.GenSmall(rng).Marshal(nil)
				if st, _ := h("/benchpb.Bench/CallSmall", data); st == xrpc.StatusOK {
					done.Add(1)
				}
			}
		}(i, handler)
	}
	pumpDeployment(t, d, func() bool { return done.Load() == conns*per })
	if impl.smallSeen.Load() != conns*per {
		t.Errorf("host saw %d", impl.smallSeen.Load())
	}
}

// Each connection of a deployment runs its own copy of a side's fault plan,
// seeded Seed+i, so multi-connection chaos is reproducible but not in
// lockstep; the caller's plan is left as it was.
func TestConnectionFaultSeeds(t *testing.T) {
	env := workload.NewEnv()
	impl := &benchImpl{env: env}
	ccfg, scfg := smallTestCfg()
	cplan := fault.Plan{DelayRate: 0.1, Delay: time.Millisecond, Seed: 7}
	splan := fault.Plan{ErrorRate: 0.1, Seed: 100}
	cwant, swant := cplan, splan
	ccfg.Faults, scfg.Faults = &cplan, &splan
	const conns = 3
	d, err := NewDeploymentWith(env.Table, impl.impls(), DeployConfig{Connections: conns, ClientCfg: ccfg, ServerCfg: scfg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < conns; i++ {
		c, s := d.DPUs[i].Client().FaultInjector().Plan(), d.HostConn(i).FaultInjector().Plan()
		if c.Seed != cwant.Seed+uint32(i) || s.Seed != swant.Seed+uint32(i) {
			t.Errorf("connection %d: seeds %d/%d, want %d/%d", i, c.Seed, s.Seed, cwant.Seed+uint32(i), swant.Seed+uint32(i))
		}
		c.Seed, s.Seed = cwant.Seed, swant.Seed
		if c != cwant || s != swant {
			t.Errorf("connection %d: plans %v/%v, want %v/%v with its own seed", i, c, s, cwant, swant)
		}
	}
	if cplan != cwant || splan != swant {
		t.Errorf("caller's plans became %v/%v, want %v/%v", cplan, splan, cwant, swant)
	}
}

func TestDPUServerShutdownFailsPending(t *testing.T) {
	env := workload.NewEnv()
	impl := &benchImpl{env: env}
	ccfg, scfg := smallTestCfg()
	d, err := NewDeploymentWith(env.Table, impl.impls(), DeployConfig{Connections: 1, ClientCfg: ccfg, ServerCfg: scfg})
	if err != nil {
		t.Fatal(err)
	}
	dpu := d.DPUs[0]
	stop := make(chan struct{})
	running := make(chan struct{})
	go func() {
		close(running)
		dpu.Run(stop)
	}()
	<-running
	close(stop)
	// After shutdown, new calls fail fast (possibly racing one last poll).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st, _ := dpu.XRPCHandler().Copying()("/benchpb.Bench/CallSmall",
			env.GenSmall(mt19937.New(4)).Marshal(nil))
		if st == xrpc.StatusUnavailable {
			return
		}
	}
	t.Error("calls did not fail after shutdown")
}

func TestGenSmallConcurrencySafety(t *testing.T) {
	// Guard: the benchImpl pattern above shares an MT source across
	// goroutines in some tests; this test documents that each goroutine
	// must own its source by checking determinism of a single-owner run.
	env := workload.NewEnv()
	a := env.GenSmall(mt19937.New(9)).Marshal(nil)
	b := env.GenSmall(mt19937.New(9)).Marshal(nil)
	if string(a) != string(b) {
		t.Error("GenSmall not deterministic")
	}
	_ = fmt.Sprintf
}
