package offload

import (
	"testing"

	"dpurpc/internal/abi"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// A stepped small-request round trip (submit, then DPU and host passes
// until the answer is back) allocates nothing once warm: the DPU's request
// Reservation and the host's RespReservation live in their block's per-slot
// storage, and the host's view holds its region by value.
func TestSteppedRoundTripDoesNotAllocate(t *testing.T) {
	env := workload.NewEnv()
	none := func(abi.View) (*protomsg.Message, uint16) { return nil, 0 }
	impls := map[string]Impl{"benchpb.Bench": {
		"CallSmall": none, "CallInts": none, "CallChars": none, "Echo": none, "EchoBlob": none,
	}}
	ccfg, scfg := smallTestCfg()
	d, err := NewDeploymentWith(env.Table, impls, DeployConfig{Connections: 1, ClientCfg: ccfg, ServerCfg: scfg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dpu := d.DPUs[0]
	payload := env.GenSmall(mt19937.New(1)).Marshal(nil)
	done := 0
	onDone := func(status uint16, errFlag bool, resp []byte) {
		if status != xrpc.StatusOK || errFlag {
			t.Errorf("status %d (%s)", status, resp)
		}
		done++
	}
	roundTrip := func() {
		want := done + 1
		if err := dpu.SubmitLocal("/benchpb.Bench/CallSmall", payload, onDone); err != nil {
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
}
