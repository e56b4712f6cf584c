package offload

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/adt"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/protodsl"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/xrpc"
)

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

// TestPipelineSoak drives many concurrent xRPC clients through two DPU
// servers with host duplex workers (out-of-order responses) and verifies
// every stream gets exactly its own payload back. Run under -race this is
// the datapath's synchronization pin.
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
	scfg.HostWorkers = 2
	d, err := NewDeploymentWith(table, impls, DeployConfig{
		Connections: 2, ClientCfg: ccfg, ServerCfg: scfg,
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

	// Error paths: a scan failure must surface as INVALID_ARGUMENT, and
	// unknown methods never reach the poller.
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
