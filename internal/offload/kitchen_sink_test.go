package offload

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/xrpc"
)

// TestKitchenSink combines every feature in one deployment: multiple
// connections, multiple host pollers, background handler execution on the
// duplex pool,
// response-serialization offload, and mixed workloads with handler-side
// delays — then checks totals, integrity, and memory reclamation.
func TestKitchenSink(t *testing.T) {
	table, reg := lookupTable(t)
	var handled atomic.Uint64
	impls := map[string]Impl{
		"rs.Svc": {
			"Lookup": func(req abi.View) (*protomsg.Message, uint16) {
				handled.Add(1)
				// A deterministic micro-delay keeps workers busy so
				// background completion order scrambles.
				if req.U32Name("n")%19 == 0 {
					time.Sleep(time.Millisecond)
				}
				out := protomsg.New(reg.Message("rs.Result"))
				out.SetString("key", string(req.StrName("key")))
				for i := uint32(0); i < req.U32Name("n")%32; i++ {
					out.AppendNum("values", uint64(i))
				}
				return out, 0
			},
		},
	}
	ccfg, scfg := smallTestCfg()
	scfg.HostWorkers = 3
	d, err := NewDeploymentWith(table, impls, DeployConfig{
		Connections:                  4,
		HostPollers:                  2,
		OffloadResponseSerialization: true,
		ClientCfg:                    ccfg,
		ServerCfg:                    scfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if len(d.Pollers) != 2 || len(d.DPUs) != 4 {
		t.Fatalf("topology: %d pollers, %d dpus", len(d.Pollers), len(d.DPUs))
	}

	const perConn = 150
	rng := mt19937.New(1)
	type expect struct {
		key string
		n   uint32
	}
	// Pre-generate queries (the MT source is not goroutine-safe).
	queries := make([][]expect, len(d.DPUs))
	payloads := make([][][]byte, len(d.DPUs))
	for c := range d.DPUs {
		for i := 0; i < perConn; i++ {
			e := expect{key: fmt.Sprintf("c%d-i%d", c, i), n: rng.Uint32n(64)}
			q := protomsg.New(reg.Message("rs.Query"))
			q.SetString("key", e.key)
			q.SetUint32("n", e.n)
			queries[c] = append(queries[c], e)
			payloads[c] = append(payloads[c], q.Marshal(nil))
		}
	}

	var done atomic.Uint64
	var bad atomic.Uint64
	for c, dpuSrv := range d.DPUs {
		h := dpuSrv.XRPCHandler().Copying()
		go func(c int, h xrpc.ServerHandler) {
			for i := 0; i < perConn; i++ {
				status, resp := h("/rs.Svc/Lookup", payloads[c][i])
				if status != xrpc.StatusOK {
					bad.Add(1)
					done.Add(1)
					continue
				}
				out := protomsg.New(reg.Message("rs.Result"))
				if err := out.Unmarshal(resp); err != nil {
					bad.Add(1)
					done.Add(1)
					continue
				}
				e := queries[c][i]
				if out.GetString("key") != e.key || len(out.Nums("values")) != int(e.n%32) {
					bad.Add(1)
				}
				done.Add(1)
			}
		}(c, h)
	}

	total := uint64(len(d.DPUs) * perConn)
	deadline := time.Now().Add(30 * time.Second)
	for done.Load() < total && time.Now().Before(deadline) {
		for _, dpuSrv := range d.DPUs {
			if _, err := dpuSrv.Progress(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.ProgressHost(); err != nil {
			t.Fatal(err)
		}
	}
	if done.Load() != total {
		t.Fatalf("completed %d/%d", done.Load(), total)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d corrupted or failed responses", bad.Load())
	}
	if handled.Load() != total {
		t.Errorf("host handled %d", handled.Load())
	}
	// Every DPU serialized its own connection's responses.
	for i, dpuSrv := range d.DPUs {
		st := dpuSrv.Stats()
		if st.SerializedBytes == 0 {
			t.Errorf("dpu %d serialized nothing (response offload broken)", i)
		}
		if st.Responses != perConn {
			t.Errorf("dpu %d responses = %d", i, st.Responses)
		}
	}
	// Duplex pools drained.
	for _, p := range d.Pollers {
		if p.ResponsePending() != 0 {
			t.Error("duplex tasks pending at quiescence")
		}
	}
}
