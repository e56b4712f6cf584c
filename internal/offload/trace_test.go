package offload

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/trace"
	"dpurpc/internal/xrpc"
)

// TestTracedDuplexSoak is TestDuplexSoak with end-to-end tracing enabled:
// many concurrent xRPC clients through the full duplex pipeline while every
// RPC records spans from admission to reply. Run under -race this pins
// the tracer's synchronization against the datapath's — span recording
// happens from DPU workers, the DPU poller, host duplex workers, and the
// host poller simultaneously.
func TestTracedDuplexSoak(t *testing.T) {
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
	const clientsPerConn = 3
	const callsPerClient = 200
	const total = 2 * clientsPerConn * callsPerClient
	tr := trace.New(trace.Config{RingSize: 2 * total, MaxActive: 2 * total})
	tr.Enable()
	ccfg, scfg := smallTestCfg()
	d, err := NewDeploymentWith(table, impls, DeployConfig{
		Connections: 2, ClientCfg: ccfg, ServerCfg: scfg,
		DPUWorkers: 4, HostWorkers: 4,
		OffloadResponseSerialization: true,
		Tracer:                       tr,
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
		<-hostDone
		d.Close()
	}()

	reqDesc := reg.Message("echopb.Req")
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
		t.Fatal("traced duplex soak timed out")
	}
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d failed calls", n)
	}

	st := tr.Stats()
	if st.Started != total || st.Finished != total {
		t.Fatalf("trace stats %+v, want %d started and finished", st, total)
	}
	if st.DroppedActive != 0 || st.DroppedRing != 0 {
		t.Fatalf("tracer shed load: %+v", st)
	}
	traces := tr.Snapshot()
	if len(traces) != total {
		t.Fatalf("retained %d traces, want %d", len(traces), total)
	}
	// Every trace must cover both sides of the PCIe link and be well-formed.
	for _, x := range traces {
		if x.End < x.Start {
			t.Fatalf("trace %d: End %d < Start %d", x.ID, x.End, x.Start)
		}
		var dpuSide, hostSide bool
		stages := map[string]bool{}
		for _, s := range x.Spans {
			stages[s.Stage] = true
			switch s.Proc {
			case trace.ProcDPU:
				dpuSide = true
			case trace.ProcHost:
				hostSide = true
			default:
				t.Fatalf("trace %d: span with proc %d", x.ID, s.Proc)
			}
		}
		if !dpuSide || !hostSide {
			t.Fatalf("trace %d: spans only on one side (dpu=%v host=%v): %+v",
				x.ID, dpuSide, hostSide, x.Spans)
		}
		for _, want := range []string{trace.StageMeasure, trace.StageHostDispatch,
			trace.StageHostHandler, trace.StageRespSerialize, trace.StageDeliver} {
			if !stages[want] {
				t.Fatalf("trace %d missing stage %s (has %v)", x.ID, want, stages)
			}
		}
	}
}
