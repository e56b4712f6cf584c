package offload

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/fabric"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/rdma"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/xrpc"
)

// Every SG segment's alignment pad is written as zeros where the segment is
// placed, in both directions: a send buffer is recycled dirty across
// connections and reused by the connection's own later blocks, so a pad
// left unwritten would carry whatever an earlier message put there. Payload
// sizes cycle on one connection, so each segment's pad lands on memory an
// earlier message filled; a handler wrapped around the host's checks the
// request segments it receives and the response segments it builds.
func TestSGPadsCarryNoStaleBytes(t *testing.T) {
	table, reg := echoEnv(t)
	respDesc := reg.Message("echopb.Resp")
	impls := map[string]Impl{"echopb.Echo": {
		"Call": func(req abi.View) (*protomsg.Message, uint16) {
			m := protomsg.New(respDesc)
			m.SetUint64("id", req.U64Name("id"))
			m.SetString("data", string(req.StrName("data")))
			return m, 0
		},
	}}
	link := fabric.NewLink()
	dpuDev := rdma.NewDevice("dpu", link, fabric.DPUToHost)
	hostDev := rdma.NewDevice("host", link, fabric.HostToDPU)
	dpuTable, err := Handshake(hostDev, dpuDev, table)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DeployConfig{OffloadResponseSerialization: true, SGPayloadMin: 64}
	host, err := NewHostServer(table, impls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := dpuProcTable(dpuTable, nil)
	if err != nil {
		t.Fatal(err)
	}

	segments := map[string]int{}
	checkPads := func(dir string, payload []byte) {
		for _, s := range rpcrdma.ParseSGTable(payload) {
			end := int(s.Off + s.Len)
			pad := payload[end : (end+7)&^7]
			if !bytes.Equal(pad, make([]byte, len(pad))) {
				t.Errorf("%s segment of %d bytes: pad %x, want zeros", dir, s.Len, pad)
			}
			segments[dir]++
		}
	}
	inner := host.Handler()
	h := func(req rpcrdma.Request) rpcrdma.ResponseSpec {
		if req.SG {
			checkPads("request", req.Payload)
		}
		spec := inner(req)
		if spec.SG {
			build := spec.Build
			spec.Build = func(dst []byte, regionOff uint64) (uint32, int, error) {
				root, used, err := build(dst, regionOff)
				if err == nil {
					checkPads("response", dst[:used])
				}
				return root, used, err
			}
		}
		return spec
	}
	ccfg, scfg := smallTestCfg()
	poller := rpcrdma.NewServerPoller(scfg)
	defer poller.Close()
	client, _, err := rpcrdma.Connect(dpuDev, hostDev, ccfg, scfg, poller, h)
	if err != nil {
		t.Fatal(err)
	}
	dpu := newDPUServer(procs, client, cfg, nil, nil)
	defer dpu.Close()

	reqDesc := reg.Message("echopb.Req")
	// Each batch shares one block. 200 and 131 bytes ride in segments (131
	// with a 5-byte pad); 63 bytes stay inline, spilling into the object
	// area. The DPU gathers its own request segments and never writes them
	// into its send buffer, so what lands under a request segment's pad is
	// an earlier block's inline bytes at a later slot.
	batches := [][]int{{63, 63, 63}, {131}, {200, 131}, {63, 63, 63}, {131, 131}}
	id := uint64(0)
	for _, batch := range batches {
		pending := 0
		for _, n := range batch {
			id++
			data := strings.Repeat("x", n)
			m := protomsg.New(reqDesc)
			m.SetUint64("id", id)
			m.SetString("data", data)
			pending++
			err := dpu.SubmitLocal("/echopb.Echo/Call", m.Marshal(nil), func(status uint16, _ bool, resp []byte) {
				got := protomsg.New(respDesc)
				if status != xrpc.StatusOK || got.Unmarshal(resp) != nil || string(got.GetString("data")) != data {
					t.Errorf("%d-byte call: status %d, wrong echo", n, status)
				}
				pending--
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); pending > 0; {
			if time.Now().After(deadline) {
				t.Fatalf("batch %v never completed", batch)
			}
			if _, err := dpu.Progress(); err != nil {
				t.Fatal(err)
			}
			if _, err := poller.Progress(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if segments["request"] != 5 || segments["response"] != 5 {
		t.Fatalf("checked %d request and %d response segments, want 5 each", segments["request"], segments["response"])
	}
}
