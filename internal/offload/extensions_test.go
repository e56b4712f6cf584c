package offload

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/adt"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/protodsl"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// lookupSchema defines a service whose responses carry data, so the
// response-serialization offload has real work to do.
const lookupSchema = `
syntax = "proto3";
package rs;

message Query { string key = 1; uint32 n = 2; }
message Result {
  string key = 1;
  repeated uint32 values = 2;
  string note = 3;
}
service Svc { rpc Lookup (Query) returns (Result); }
`

func lookupTable(t *testing.T) (*adt.Table, *protodesc.Registry) {
	t.Helper()
	f, err := protodsl.Parse("rs.proto", lookupSchema)
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

// runLookup drives one Lookup call through a deployment and returns the
// serialized response bytes the xRPC client would see.
func runLookup(t *testing.T, d *Deployment, reg *protodesc.Registry, key string, n uint32) []byte {
	t.Helper()
	q := protomsg.New(reg.Message("rs.Query"))
	q.SetString("key", key)
	q.SetUint32("n", n)
	var out []byte
	done := false
	if err := d.DPUs[0].SubmitLocal("/rs.Svc/Lookup", q.Marshal(nil),
		func(status uint16, errFlag bool, resp []byte) {
			done = true
			if status != 0 || errFlag {
				t.Errorf("lookup failed: %d", status)
			}
			out = append([]byte(nil), resp...)
		}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !done && time.Now().Before(deadline) {
		d.DPUs[0].Progress()
		d.Poller.Progress()
	}
	if !done {
		t.Fatal("lookup stalled")
	}
	return out
}

func lookupImpls(reg *protodesc.Registry) map[string]Impl {
	return map[string]Impl{
		"rs.Svc": {
			"Lookup": func(req abi.View) (*protomsg.Message, uint16) {
				out := protomsg.New(reg.Message("rs.Result"))
				out.SetString("key", string(req.StrName("key")))
				for i := uint32(0); i < req.U32Name("n"); i++ {
					out.AppendNum("values", uint64(i*3))
				}
				out.SetString("note", strings.Repeat("n", 40)) // spilled string
				return out, 0
			},
		},
	}
}

func TestResponseSerializationOffload(t *testing.T) {
	// The same call through both modes must produce byte-identical client
	// responses; in offload mode the DPU (deser.Serialize) produces them.
	table, reg := lookupTable(t)
	ccfg, scfg := smallTestCfg()

	var responses [2][]byte
	var dpuSerialized [2]uint64
	for i, offloadResp := range []bool{false, true} {
		d, err := NewDeploymentWith(table, lookupImpls(reg), DeployConfig{
			Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
			OffloadResponseSerialization: offloadResp,
		})
		if err != nil {
			t.Fatal(err)
		}
		responses[i] = runLookup(t, d, reg, "alpha", 20)
		dpuSerialized[i] = d.DPUs[0].Stats().SerializedBytes
	}
	if string(responses[0]) != string(responses[1]) {
		t.Fatalf("modes diverge:\n host-serialized: %x\n dpu-serialized:  %x",
			responses[0], responses[1])
	}
	if dpuSerialized[0] != 0 {
		t.Error("default mode should not serialize on the DPU")
	}
	if dpuSerialized[1] == 0 {
		t.Error("offload mode did not serialize on the DPU")
	}
	// The response decodes into the expected message.
	res := protomsg.New(reg.Message("rs.Result"))
	if err := res.Unmarshal(responses[1]); err != nil {
		t.Fatal(err)
	}
	if res.GetString("key") != "alpha" || len(res.Nums("values")) != 20 ||
		len(res.GetString("note")) != 40 {
		t.Error("response contents wrong")
	}
}

func TestBackgroundDeployment(t *testing.T) {
	// The Sec. III-D extension end to end: host handlers run on the duplex
	// pool; a deliberately slow handler must not block fast ones.
	env := workload.NewEnv()
	var slowStarted, slowDone atomic.Bool
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseSlow := func() { releaseOnce.Do(func() { close(release) }) }
	impls := map[string]Impl{
		"benchpb.Bench": {
			"CallSmall": func(req abi.View) (*protomsg.Message, uint16) { return nil, 0 },
			"CallInts": func(req abi.View) (*protomsg.Message, uint16) {
				slowStarted.Store(true)
				<-release
				slowDone.Store(true)
				return nil, 0
			},
			"CallChars": func(req abi.View) (*protomsg.Message, uint16) { return nil, 0 },
			"Echo":      func(req abi.View) (*protomsg.Message, uint16) { return nil, 0 },
			"EchoBlob":  func(req abi.View) (*protomsg.Message, uint16) { return nil, 0 },
		},
	}
	ccfg, scfg := smallTestCfg()
	scfg.HostWorkers = 4
	d, err := NewDeploymentWith(env.Table, impls, DeployConfig{
		Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Poller.Close()
	// Runs before Poller.Close, which waits for the slow handler: a failed
	// assertion must not leave it blocked.
	defer releaseSlow()
	dpu := d.DPUs[0]
	rng := mt19937.New(2)

	slowResponded := false
	ints := env.GenIntsCalibrated(rng).Marshal(nil)
	if err := dpu.SubmitLocal("/benchpb.Bench/CallInts", ints,
		func(status uint16, errFlag bool, resp []byte) { slowResponded = true }); err != nil {
		t.Fatal(err)
	}
	fastDone := 0
	for i := 0; i < 30; i++ {
		payload := env.GenSmall(rng).Marshal(nil)
		if err := dpu.SubmitLocal("/benchpb.Bench/CallSmall", payload,
			func(status uint16, errFlag bool, resp []byte) {
				fastDone++
				if status != 0 {
					t.Errorf("fast call failed: %d", status)
				}
			}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for fastDone < 30 && time.Now().Before(deadline) {
		dpu.Progress()
		d.Poller.Progress()
	}
	if fastDone != 30 {
		t.Fatalf("fast calls done %d/30", fastDone)
	}
	if slowResponded {
		t.Fatal("slow call responded before release")
	}
	// The fast calls can all finish before a duplex worker picks the slow
	// call up (one CPU, or the race detector): step until it starts.
	deadline = time.Now().Add(10 * time.Second)
	for !slowStarted.Load() && time.Now().Before(deadline) {
		dpu.Progress()
		d.Poller.Progress()
	}
	if !slowStarted.Load() {
		t.Fatal("slow handler never started (pool not running)")
	}
	releaseSlow()
	deadline = time.Now().Add(10 * time.Second)
	for !slowResponded && time.Now().Before(deadline) {
		dpu.Progress()
		d.Poller.Progress()
	}
	if !slowResponded || !slowDone.Load() {
		t.Fatal("slow call never completed")
	}
}

func TestResponseObjectsOverRealTCP(t *testing.T) {
	// Full path with response-serialization offload over real sockets:
	// client bytes must decode exactly as in default mode.
	env := workload.NewEnv()
	impl := &benchImpl{env: env}
	ccfg, scfg := smallTestCfg()
	d, err := NewDeploymentWith(env.Table, impl.impls(), DeployConfig{
		Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
		OffloadResponseSerialization: true,
	})
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
	srv := xrpc.NewAsyncServer(d.DPUs[0].XRPCHandler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	client, err := xrpc.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rng := mt19937.New(3)
	data := env.GenChars(rng, 500).Marshal(nil)
	status, resp, err := client.Call("/benchpb.Bench/CallChars", data)
	if err != nil || status != xrpc.StatusOK || len(resp) != 0 {
		t.Fatalf("call: %d %d bytes %v", status, len(resp), err)
	}
	if impl.charsBytes.Load() != 500 {
		t.Errorf("host saw %d chars", impl.charsBytes.Load())
	}
}
