package offload

import (
	"bytes"
	"testing"

	"dpurpc/internal/abi"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// A stepped round trip (submit, then DPU and host passes until the answer is
// back) allocates nothing once warm, in every response mode. The DPU's
// request Reservation and the host's response slot live in their block's
// per-slot storage, the host's view holds its region by value, the DPU
// places SG segments through poller-owned scratch, the host builds every
// response through a pooled builder, a DPU response buffer carries its
// release bound once, and the duplex pool recycles its tasks. The handlers
// return a prebuilt message, so the handler's own allocations stay out of
// the count; the setbytes rows echo the request into one reused message
// with SetBytes, which keeps the request's bytes by reference, and on the
// SG row the host's post gathers them from the request block.
func TestSteppedRoundTripDoesNotAllocate(t *testing.T) {
	env := workload.NewEnv()
	none := func(abi.View) (*protomsg.Message, uint16) { return nil, 0 }
	blob := env.GenBlob(mt19937.New(2), 2048)
	blobResp := blob.Marshal(nil)
	echo := func(abi.View) (*protomsg.Message, uint16) { return blob, 0 }
	reused := protomsg.New(env.Blob)
	echoSetBytes := func(req abi.View) (*protomsg.Message, uint16) {
		if err := reused.SetBytes("data", req.StrName("data")); err != nil {
			t.Error(err)
		}
		return reused, 0
	}
	small := env.GenSmall(mt19937.New(1)).Marshal(nil)
	blobReq := env.GenBlob(mt19937.New(3), 2048).Marshal(nil)
	const sgMin = 1024
	const echoBlob = "/benchpb.Bench/EchoBlob"
	for _, tc := range []struct {
		name        string
		method      string
		payload     []byte
		respObjects bool
		sgMin       int
		hostWorkers int
		setBytes    bool
	}{
		{"small", "/benchpb.Bench/CallSmall", small, false, 0, 0, false},
		{"host-marshalled", echoBlob, blobReq, false, 0, 0, false},
		{"resp-objects", echoBlob, blobReq, true, 0, 0, false},
		{"sg-request", echoBlob, blobReq, false, sgMin, 0, false},
		{"sg-resp-objects", echoBlob, blobReq, true, sgMin, 0, false},
		{"sg-resp-objects-duplex", echoBlob, blobReq, true, sgMin, 2, false},
		{"host-marshalled-setbytes", echoBlob, blobReq, false, 0, 0, true},
		{"sg-resp-objects-setbytes", echoBlob, blobReq, true, sgMin, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.name != "small" {
				// These rows answer with a message, through the host's and
				// the DPU's sync.Pools, from which -race drops a quarter of
				// the puts on purpose.
				t.Skip("-race drops sync.Pool items at random")
			}
			impls := map[string]Impl{"benchpb.Bench": {
				"CallSmall": none, "CallInts": none, "CallChars": none, "Echo": none, "EchoBlob": echo,
			}}
			want := blobResp
			if tc.setBytes {
				impls["benchpb.Bench"]["EchoBlob"] = echoSetBytes
				want = blobReq // an echo of the request
			}
			ccfg, scfg := smallTestCfg()
			scfg.HostWorkers = tc.hostWorkers
			d, err := NewDeploymentWith(env.Table, impls, DeployConfig{
				Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
				OffloadResponseSerialization: tc.respObjects,
				SGPayloadMin:                 tc.sgMin,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			dpu := d.DPUs[0]
			done := 0
			onDone := func(status uint16, errFlag bool, resp []byte) {
				if status != xrpc.StatusOK || errFlag {
					t.Errorf("status %d (%s)", status, resp)
				} else if tc.method == echoBlob && !bytes.Equal(resp, want) {
					t.Errorf("response diverged (%d bytes, want %d)", len(resp), len(want))
				}
				done++
			}
			roundTrip := func() {
				want := done + 1
				if err := dpu.SubmitLocal(tc.method, tc.payload, onDone); err != nil {
					t.Fatal(err)
				}
				for done < want {
					if _, err := dpu.Progress(); err != nil {
						t.Fatal(err)
					}
					if _, err := d.ProgressHost(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 200; i++ {
				roundTrip()
			}
			if a := testing.AllocsPerRun(500, roundTrip); a != 0 {
				t.Errorf("stepped round trip: %v allocs, want 0", a)
			}
			// The SG rows must have framed what they claim to frame.
			c := dpu.Client().Counters
			if sent := c.SGMessagesSent > 0; sent != (tc.sgMin > 0) {
				t.Errorf("SGMessagesSent = %d with SGPayloadMin %d", c.SGMessagesSent, tc.sgMin)
			}
			if got := c.SGMessagesReceived > 0; got != (tc.sgMin > 0 && tc.respObjects) {
				t.Errorf("SGMessagesReceived = %d", c.SGMessagesReceived)
			}
		})
	}
}
