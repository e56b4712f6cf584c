package offload

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/xrpc"
)

// TestDuplexSoak drives many concurrent xRPC clients through the full
// duplex pipeline — the DPU poller deserializing on the request path,
// host-side build workers plus DPU-side response serialization on the
// response path — and verifies every stream gets exactly its own payload
// back. Run under -race this is the response pipeline's synchronization pin.
func TestDuplexSoak(t *testing.T) {
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
	scfg.HostWorkers = 4
	d, err := NewDeploymentWith(table, impls, DeployConfig{
		Connections: 2, ClientCfg: ccfg, ServerCfg: scfg,
		OffloadResponseSerialization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	for _, dpu := range d.DPUs {
		go dpu.Run(stop)
	}
	hostDone := make(chan struct{})
	go func() {
		defer close(hostDone)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := d.ProgressHost(); err != nil {
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		<-hostDone // the host poller drives the duplex pool Close tears down
		d.Close()
	}()

	reqDesc := reg.Message("echopb.Req")
	const clientsPerConn = 3
	const callsPerClient = 200
	var wg sync.WaitGroup
	var mismatches atomic.Uint64
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
			wg.Add(1)
			go func(cl *xrpc.Client) {
				defer wg.Done()
				var callWG sync.WaitGroup
				for i := 0; i < callsPerClient; i++ {
					id := next.Add(1)
					m := protomsg.New(reqDesc)
					m.SetUint64("id", id)
					m.SetString("data", echoData(id))
					callWG.Add(1)
					err := cl.Go("/echopb.Echo/Call", m.Marshal(nil),
						func(status uint16, payload []byte, err error) {
							defer callWG.Done()
							if err != nil || status != xrpc.StatusOK {
								mismatches.Add(1)
								return
							}
							got := protomsg.New(respDesc)
							if err := got.Unmarshal(payload); err != nil ||
								got.Uint64("id") != id ||
								string(got.GetString("data")) != echoData(id) {
								mismatches.Add(1)
							}
						})
					if err != nil {
						mismatches.Add(1)
						callWG.Done()
					}
					if i%16 == 15 {
						cl.Flush()
					}
				}
				cl.Flush()
				callWG.Wait()
			}(cl)
		}
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("duplex soak timed out")
	}
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d calls returned the wrong payload", n)
	}

	// The traffic actually took the duplex paths on both sides.
	var handled, built, tombstones uint64
	for _, conn := range d.Poller.Conns() {
		handled += conn.Counters.DuplexHandled
		built += conn.Counters.DuplexBuilt
		tombstones += conn.Counters.DuplexTombstones
	}
	const total = 2 * clientsPerConn * callsPerClient
	if handled != total || built != total {
		t.Errorf("duplex counters: handled=%d built=%d want %d", handled, built, total)
	}
	if tombstones != 0 {
		t.Errorf("%d unexpected tombstones", tombstones)
	}
	var serialized uint64
	for _, dpu := range d.DPUs {
		serialized += dpu.Stats().SerializedBytes
	}
	if serialized == 0 {
		t.Error("DPU serialized no response bytes (offload not taken)")
	}
}

// TestHostSettersFailAfterStart pins the loud-failure contract: rebinding
// the response-object sink or the request observer once requests are in
// flight would race the worker pool, so both setters panic instead of
// silently racing.
func TestHostSettersFailAfterStart(t *testing.T) {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Drive one request through so the host server is marked started.
	reqDesc := reg.Message("echopb.Req")
	m := protomsg.New(reqDesc)
	m.SetUint64("id", 7)
	done := false
	if err := d.DPUs[0].SubmitLocal("/echopb.Echo/Call", m.Marshal(nil),
		func(status uint16, errFlag bool, resp []byte) { done = true }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !done && time.Now().Before(deadline) {
		d.DPUs[0].Progress()
		d.Poller.Progress()
	}
	if !done {
		t.Fatal("warm-up call stalled")
	}

	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic after serving started", name)
			}
		}()
		f()
	}
	expectPanic("SetResponseObjects", func() { d.Host.SetResponseObjects(true) })
	expectPanic("SetRequestObserver", func() { d.Host.SetRequestObserver(nil) })
}
