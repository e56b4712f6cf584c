package dpurpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpurpc/internal/arena"
	"dpurpc/internal/fault"
	"dpurpc/internal/offload"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/xrpc"
)

const recycleEchoSchema = `syntax = "proto3";
package echopb;
message Req  { uint64 id = 1; string data = 2; }
message Resp { uint64 id = 1; string data = 2; }
service Echo { rpc Call (Req) returns (Resp); }`

// TestRecycledBuffersUnderChurn sets deployments up and tears them down back
// to back on recycled connection buffers, poisoned with 0xDB on return,
// while every connection's QPs delay a share of their deliveries and
// connections break and redial under load. Every call must come back with
// its own echo or fail typed (UNAVAILABLE, DEADLINE_EXCEEDED). A pair whose
// buffers went back to the cache while a delay line, the host poller or a
// duplex worker could still write into them shows up as a wrong echo or a
// broken connection, and under -race as a data race with the connection
// that took the buffers next.
func TestRecycledBuffersUnderChurn(t *testing.T) {
	arena.SetPoisonOnRelease(true)
	defer arena.SetPoisonOnRelease(false)
	schema, err := ParseSchema("echo.proto", recycleEchoSchema)
	if err != nil {
		t.Fatal(err)
	}
	respDesc := schema.Registry.Message("echopb.Resp")
	reqDesc := schema.Registry.Message("echopb.Req")
	impls := map[string]Impl{"echopb.Echo": {
		"Call": func(req View) (*Message, uint16) {
			m := schema.NewMessage(respDesc.Name)
			m.SetUint64("id", req.U64Name("id"))
			m.SetString("data", string(req.StrName("data")))
			return m, 0
		},
	}}
	data := func(id uint64) string {
		return fmt.Sprintf("%d:%s", id, strings.Repeat("xy", int(id%211)))
	}

	const cycles, callers, calls = 12, 4, 40
	hits0, _ := rpcrdma.BufferCacheStats()
	var ok, typed, reconnects uint64
	for cycle := 0; cycle < cycles; cycle++ {
		delay := fault.Plan{DelayRate: 0.2, Delay: 300 * time.Microsecond, Seed: uint32(1 + cycle)}
		ccfg := Config{BlockSize: 8192, Credits: 32, SBufSize: 1 << 20, CQDepth: 128,
			RequestTimeout: 2 * time.Second, Faults: &delay}
		scfg := Config{BlockSize: 8192, Credits: 32, SBufSize: 1 << 20, CQDepth: 128, HostWorkers: 2,
			Faults: &delay}
		d, err := offload.NewDeploymentWith(schema.Table, impls, offload.DeployConfig{
			Connections: 2, ClientCfg: ccfg, ServerCfg: scfg,
			// Alternate cycles move the data through SG segments and
			// response objects too.
			SGPayloadMin:                 []int{0, 64}[cycle%2],
			OffloadResponseSerialization: cycle%2 == 1,
			ReconnectBudget:              10,
		})
		if err != nil {
			t.Fatal(err)
		}
		group := offload.NewPollerGroup(d.DPUs, len(d.DPUs))
		group.Start()
		stopHost := make(chan struct{})
		hostDone := make(chan struct{})
		go func() {
			defer close(hostDone)
			for {
				select {
				case <-stopHost:
					return
				default:
				}
				if _, err := d.ProgressHost(); err != nil && !errors.Is(err, rpcrdma.ErrConnBroken) {
					t.Errorf("host poller: %v", err)
					return
				}
			}
		}()

		var wrong atomic.Uint64
		var okN, typedN atomic.Uint64
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			call := d.DPUs[c%len(d.DPUs)].XRPCHandler().Copying()
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					id := uint64(cycle*callers*calls + c*calls + i)
					m := schema.NewMessage(reqDesc.Name)
					m.SetUint64("id", id)
					m.SetString("data", data(id))
					status, resp := call("/echopb.Echo/Call", m.Marshal(nil))
					switch status {
					case xrpc.StatusOK:
						got := schema.NewMessage(respDesc.Name)
						if err := got.Unmarshal(resp); err != nil || got.Uint64("id") != id ||
							string(got.GetString("data")) != data(id) {
							wrong.Add(1)
							continue
						}
						okN.Add(1)
					case xrpc.StatusUnavailable, xrpc.StatusDeadlineExceeded:
						typedN.Add(1)
					default:
						wrong.Add(1)
					}
				}
			}(c)
		}
		// Break a connection every few milliseconds while the callers run;
		// each redial leaves the old pair to the GC. Every other pair of
		// cycles closes the deployment under load after a few breaks, while
		// the delay lines still hold deliveries; the others wait for the
		// callers. Close recycles the pairs current at the end.
		closeUnderLoad := cycle/2%2 == 1
		callersDone := make(chan struct{})
		go func() { wg.Wait(); close(callersDone) }()
		deadline := time.After(30 * time.Second)
		for k := 0; !closeUnderLoad || k < 5; k++ {
			select {
			case <-callersDone:
			case <-time.After(2 * time.Millisecond):
				group.Kill(k % len(d.DPUs))
				continue
			case <-deadline:
				t.Fatalf("cycle %d: calls never resolved", cycle)
			}
			break
		}
		close(stopHost)
		<-hostDone
		group.Stop()
		for _, dpu := range d.DPUs {
			reconnects += dpu.Stats().Reconnects
		}
		d.Close()
		select {
		case <-callersDone:
		case <-deadline:
			t.Fatalf("cycle %d: calls never resolved after the close", cycle)
		}

		if n := wrong.Load(); n > 0 {
			t.Fatalf("cycle %d: %d calls answered wrong or untyped", cycle, n)
		}
		ok += okN.Load()
		typed += typedN.Load()
	}
	t.Logf("%d ok, %d typed failures, %d reconnects", ok, typed, reconnects)
	if ok == 0 || reconnects == 0 {
		t.Fatalf("%d ok calls and %d reconnects: the churn exercised nothing", ok, reconnects)
	}
	if hits, _ := rpcrdma.BufferCacheStats(); hits == hits0 {
		t.Error("no connection took recycled buffers")
	}
}
