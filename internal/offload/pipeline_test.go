package offload

import (
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/adt"
	"dpurpc/internal/deser"
	"dpurpc/internal/metrics"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/protodsl"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// reqObs is one host-side request observation: the method plus a digest of
// the request object's canonical re-serialization. Re-serializing through
// the zero-copy view erases arena placement (object offsets are region-
// absolute and depend on block recycling timing, which legitimately
// differs between the serial and pipelined schedules) while pinning every
// decoded field value byte-for-byte.
type reqObs struct {
	method uint16
	sum    uint64
}

func digest(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// TestPipelineMatchesSerialBytes is the pipeline's correctness pin: the
// same request batch driven through the serial datapath (workers=1) and
// the multi-core pipeline (workers=4) must return, in the same order, the
// same deserialized objects — verified by canonical re-serialization on
// the host.
func TestPipelineMatchesSerialBytes(t *testing.T) {
	env := workload.NewEnv()

	// Deterministic batch, generated once and replayed into both runs.
	// Total bytes stay far below the send buffer so neither run takes the
	// out-of-memory backpressure path (which may legally reorder nothing
	// but stalls differently).
	type call struct {
		method string
		data   []byte
	}
	rng := mt19937.New(7)
	var batch []call
	for i := 0; i < 240; i++ {
		switch i % 3 {
		case 0:
			batch = append(batch, call{"/benchpb.Bench/CallSmall", env.GenSmall(rng).Marshal(nil)})
		case 1:
			batch = append(batch, call{"/benchpb.Bench/CallInts", env.GenInts(rng, 24+i%40).Marshal(nil)})
		case 2:
			batch = append(batch, call{"/benchpb.Bench/CallChars", env.GenChars(rng, 64+i%300).Marshal(nil)})
		}
	}

	run := func(workers int, pm *metrics.PipelineMetrics) []reqObs {
		impl := &benchImpl{env: env}
		ccfg, scfg := smallTestCfg()
		d, err := NewDeploymentWith(env.Table, impl.impls(), DeployConfig{
			Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
			DPUWorkers: workers, DPUPipeline: pm,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		lays := map[uint16]*abi.Layout{
			workload.MethodSmall: env.SmallLay,
			workload.MethodInts:  env.IntsLay,
			workload.MethodChars: env.CharsLay,
		}
		var seen []reqObs
		d.Host.SetRequestObserver(func(req rpcrdma.Request) {
			view := abi.MakeView(
				&abi.Region{Buf: req.Payload, Base: req.RegionOff},
				req.RegionOff+uint64(req.Root), lays[req.Method])
			wire, err := deser.Serialize(view, nil)
			if err != nil {
				t.Errorf("re-serialize request %d: %v", len(seen), err)
			}
			seen = append(seen, reqObs{req.Method, digest(wire)})
		})
		dpu := d.DPUs[0]
		if got := dpu.Workers(); got != workers && !(workers <= 1 && got == 1) {
			t.Fatalf("Workers() = %d, configured %d", got, workers)
		}
		done := 0
		for _, c := range batch {
			if err := dpu.SubmitLocal(c.method, c.data, func(status uint16, errFlag bool, resp []byte) {
				if status != xrpc.StatusOK || errFlag {
					t.Errorf("call failed: status %d", status)
				}
				done++
			}); err != nil {
				t.Fatal(err)
			}
		}
		pumpDeployment(t, d, func() bool { return done == len(batch) })
		st := dpu.Stats()
		if st.Requests != uint64(len(batch)) || st.Deser.Messages == 0 {
			t.Errorf("workers=%d stats: %+v", workers, st)
		}
		return seen
	}

	serial := run(1, nil)
	pm := metrics.NewPipelineMetrics(nil, nil)
	pipelined := run(4, pm)

	if len(serial) != len(pipelined) || len(serial) != 240 {
		t.Fatalf("request counts: serial %d, pipelined %d", len(serial), len(pipelined))
	}
	for i := range serial {
		if serial[i] != pipelined[i] {
			t.Fatalf("request %d diverges:\n serial    %+v\n pipelined %+v",
				i, serial[i], pipelined[i])
		}
	}
	// Small inline requests are filled on the poller; only the rest reach a
	// worker.
	large := 0
	for _, c := range batch {
		if len(c.data) > deser.SmallFastPathMax {
			large++
		}
	}
	if large == 0 || large == len(batch) {
		t.Fatalf("batch has %d of %d requests above the small-fill cutoff: the split is not exercised", large, len(batch))
	}
	if got := pm.Builds.Value(); got != uint64(large) {
		t.Errorf("worker builds = %d, want %d (requests above %d B)", got, large, deser.SmallFastPathMax)
	}
	if got := pm.QueueDepth.Value(); got != 0 {
		t.Errorf("queue depth after drain = %v", got)
	}
	if pm.BusyNS.Value() == 0 {
		t.Error("workers recorded no busy time")
	}
}

const echoSchema = `syntax = "proto3";
package echopb;
message Req  { uint64 id = 1; string data = 2; }
message Resp { uint64 id = 1; string data = 2; }
service Echo { rpc Call (Req) returns (Resp); }`

func echoEnv(t *testing.T) (*adt.Table, *protodesc.Registry) {
	t.Helper()
	f, err := protodsl.Parse("echo.proto", echoSchema)
	if err != nil {
		t.Fatal(err)
	}
	reg := protodesc.NewRegistry()
	if err := reg.Register(f); err != nil {
		t.Fatal(err)
	}
	table, err := adt.Build(reg)
	if err != nil {
		t.Fatal(err)
	}
	return table, reg
}

func echoData(id uint64) string {
	return fmt.Sprintf("%d:%s", id, strings.Repeat("ab", int(id%97)))
}

// TestPipelineSoak drives many concurrent xRPC clients through multi-worker
// DPU servers with host duplex workers (out-of-order responses) and
// verifies every stream gets exactly its own payload back. Run under -race
// this is the pipeline's synchronization pin.
func TestPipelineSoak(t *testing.T) {
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
	d, err := NewDeploymentWith(table, impls, DeployConfig{
		Connections: 2, ClientCfg: ccfg, ServerCfg: scfg,
		DPUWorkers: 4, HostWorkers: 2,
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
		<-hostDone // ServerPoller.Close is owner-side: not under a running Progress
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
		t.Fatal("soak timed out")
	}
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d calls returned the wrong payload", n)
	}

	// Error paths through the pipeline: measure failure on a worker must
	// surface as INVALID_ARGUMENT, unknown methods never enter it.
	cl, err := xrpc.Dial(func() string {
		ln, _ := net.Listen("tcp", "127.0.0.1:0")
		srv := xrpc.NewAsyncServer(d.DPUs[0].XRPCHandler())
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		return ln.Addr().String()
	}())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if status, _, err := cl.Call("/echopb.Echo/Call", []byte{0xff}); err != nil || status != xrpc.StatusInvalidArgument {
		t.Errorf("malformed payload: status %d err %v", status, err)
	}
	if status, _, err := cl.Call("/echopb.Echo/Nope", nil); err != nil || status != xrpc.StatusUnimplemented {
		t.Errorf("unknown method: status %d err %v", status, err)
	}

	// The DPU-side counters add up and Stats is being read concurrently
	// with live pollers (the -race pin for satellite 1).
	var reqs uint64
	for _, dpu := range d.DPUs {
		st := dpu.Stats()
		reqs += st.Requests
		if st.Deser.Messages == 0 {
			t.Error("a DPU server deserialized nothing")
		}
	}
	// The malformed call fails at measure and never commits, so the total
	// is exactly the successful echo calls.
	want := uint64(len(d.DPUs) * clientsPerConn * callsPerClient)
	if reqs != want {
		t.Errorf("committed requests = %d, want %d", reqs, want)
	}
}
