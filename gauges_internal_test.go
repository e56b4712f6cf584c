package dpurpc

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/fault"
	"dpurpc/internal/metrics"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/offload"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// scraper samples a stack's gauges and reads one series from the registry
// text, the way /metrics serves it.
func scraper(t *testing.T, st *Stack) func(series string) float64 {
	reg := metrics.NewRegistry()
	smp := metrics.NewSampler(time.Hour, 4, reg) // sampled by hand
	st.RegisterGauges(smp)
	return func(series string) float64 {
		t.Helper()
		smp.SampleOnce()
		for _, line := range strings.Split(reg.Render(), "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return f
			}
		}
		t.Fatalf("/metrics has no %s", series)
		return 0
	}
}

// The process heap series advance with the allocations the process makes:
// they are what would have shown a datapath allocating per request.
func TestHeapGaugesOnMetrics(t *testing.T) {
	env := workload.NewEnv()
	none := func(abi.View) (*protomsg.Message, uint16) { return nil, 0 }
	st, err := NewBaselineStack(&Schema{Table: env.Table}, map[string]Impl{"benchpb.Bench": {
		"CallSmall": none, "CallInts": none, "CallChars": none, "Echo": none, "EchoBlob": none,
	}}, StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	scrape := scraper(t, st)
	objs, bytes := scrape("go_heap_allocs_objects_total"), scrape("go_heap_allocs_bytes_total")
	var keep [][]byte
	for i := 0; i < 1000; i++ {
		keep = append(keep, make([]byte, 64))
	}
	if got := scrape("go_heap_allocs_objects_total"); got < objs+1000 {
		t.Errorf("go_heap_allocs_objects_total went %v -> %v across 1000 allocations", objs, got)
	}
	if got := scrape("go_heap_allocs_bytes_total"); got < bytes+64*1000 {
		t.Errorf("go_heap_allocs_bytes_total went %v -> %v across 64000 allocated bytes", bytes, got)
	}
	cycles := scrape("go_gc_cycles_total")
	runtime.GC()
	if got := scrape("go_gc_cycles_total"); got <= cycles {
		t.Errorf("go_gc_cycles_total went %v -> %v across runtime.GC", cycles, got)
	}
	if v := scrape("go_heap_live_bytes"); v < 64*1000 {
		t.Errorf("go_heap_live_bytes = %v with 64000 bytes held", v)
	}
	runtime.KeepAlive(keep)
}

// Each DPU server's sheds, reconnects and redial failures are on /metrics,
// labelled by connection. The deployment is stepped by hand: with one call
// queued on the poller, an AdmitMaxInflight of 1 sheds the next one, and a
// broken connection is replaced on the next passes.
func TestDPUCountersOnMetrics(t *testing.T) {
	env := workload.NewEnv()
	none := func(abi.View) (*protomsg.Message, uint16) { return nil, 0 }
	impls := map[string]Impl{"benchpb.Bench": {
		"CallSmall": none, "CallInts": none, "CallChars": none, "Echo": none, "EchoBlob": none,
	}}
	d, err := offload.NewDeploymentWith(env.Table, impls, offload.DeployConfig{
		Connections:         1,
		DPUAdmitMaxInflight: 1,
		ReconnectBudget:     3,
		ReconnectBackoff:    time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st := &Stack{deployment: d, handlerPanics: func() uint64 { return d.Host.Stats().HandlerPanics }}
	st.instrument()
	scrape := scraper(t, st)
	const sheds, reconnects, redialFails = `dpu_sheds_total{conn="0"}`,
		`dpu_reconnects_total{conn="0"}`, `dpu_redial_failures_total{conn="0"}`
	for _, s := range []string{sheds, reconnects, redialFails} {
		if v := scrape(s); v != 0 {
			t.Fatalf("idle %s = %v", s, v)
		}
	}

	dpu := d.DPUs[0]
	payload := env.GenSmall(mt19937.New(1)).Marshal(nil)
	var statuses []uint16
	cb := func(status uint16, _ bool, _ []byte) { statuses = append(statuses, status) }
	for i := 0; i < 2; i++ {
		if err := dpu.SubmitLocal("/benchpb.Bench/CallSmall", payload, cb); err != nil {
			t.Fatal(err)
		}
	}
	if len(statuses) != 1 || statuses[0] != xrpc.StatusUnavailable {
		t.Fatalf("statuses %v after two calls against AdmitMaxInflight=1, want the second shed UNAVAILABLE", statuses)
	}
	if v := scrape(sheds); v != 1 {
		t.Errorf("%s = %v after one shed", sheds, v)
	}
	pump := func(done func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !done() {
			if time.Now().After(deadline) {
				t.Fatal("stepped deployment made no progress")
			}
			if _, err := dpu.Progress(); err != nil {
				t.Fatal(err)
			}
			d.ProgressHost()
		}
	}
	pump(func() bool { return len(statuses) == 2 })
	if statuses[1] != xrpc.StatusOK {
		t.Fatalf("admitted call answered %d", statuses[1])
	}

	dpu.Break()
	pump(func() bool { return scrape(reconnects) == 1 })
	if v := scrape(redialFails); v != 0 {
		t.Errorf("%s = %v after one clean break", redialFails, v)
	}
}

// conn_gather_bytes_total counts the SG payload bytes the DPU's request
// sender posted straight from the request: the segment bytes of every SG
// request on an SG deployment, and 0 on one without SG framing and on the
// host's response sender.
func TestGatherBytesOnMetrics(t *testing.T) {
	env := workload.NewEnv()
	blob := env.GenBlob(mt19937.New(2), 4096)
	echo := func(abi.View) (*protomsg.Message, uint16) { return blob, 0 }
	none := func(abi.View) (*protomsg.Message, uint16) { return nil, 0 }
	impls := map[string]Impl{"benchpb.Bench": {
		"CallSmall": none, "CallInts": none, "CallChars": none, "Echo": none, "EchoBlob": echo,
	}}
	req := env.GenBlob(mt19937.New(3), 4096)
	payload := req.Marshal(nil)
	const calls = 5
	for _, sgMin := range []int{0, 1024} {
		d, err := offload.NewDeploymentWith(env.Table, impls, offload.DeployConfig{
			Connections: 1, SGPayloadMin: sgMin,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := &Stack{deployment: d, handlerPanics: func() uint64 { return d.Host.Stats().HandlerPanics }}
		st.instrument()
		scrape := scraper(t, st)
		dpu := d.DPUs[0]
		done := 0
		for i := 0; i < calls; i++ {
			err := dpu.SubmitLocal("/benchpb.Bench/EchoBlob", payload, func(status uint16, _ bool, _ []byte) {
				if status != xrpc.StatusOK {
					t.Errorf("status %d", status)
				}
				done++
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); done < calls; {
			if time.Now().After(deadline) {
				t.Fatal("stepped deployment made no progress")
			}
			if _, err := dpu.Progress(); err != nil {
				t.Fatal(err)
			}
			d.ProgressHost()
		}
		want := 0.0
		if sgMin > 0 {
			want = float64(calls * len(req.Bytes("data")))
		}
		if v := scrape(`conn_gather_bytes_total{conn="0",side="dpu"}`); v != want || want != float64(dpu.Client().Counters.SGBytesSent) {
			t.Errorf("SGPayloadMin %d: dpu conn_gather_bytes_total = %v, want %v (SGBytesSent %d)",
				sgMin, v, want, dpu.Client().Counters.SGBytesSent)
		}
		if v := scrape(`conn_gather_bytes_total{conn="0",side="host"}`); v != 0 {
			t.Errorf("SGPayloadMin %d: host conn_gather_bytes_total = %v", sgMin, v)
		}
		d.Close()
	}
}

// Each endpoint's failure counters are on /metrics as conn_*_total series
// equal to its Counters fields. The DPU's posts fail at random and every
// request block lands 20 ms late, past a 5 ms RequestTimeout: the DPU
// retries the rejected posts, reaps every request, sent or not, and drops
// the late responses, and the host, admitting one request at a time, sheds the rest
// of each block. No arena runs out, so the recoveries series stays 0.
func TestFailureCountersOnMetrics(t *testing.T) {
	env := workload.NewEnv()
	none := func(abi.View) (*protomsg.Message, uint16) { return nil, 0 }
	impls := map[string]Impl{"benchpb.Bench": {
		"CallSmall": none, "CallInts": none, "CallChars": none, "Echo": none, "EchoBlob": none,
	}}
	plan := fault.Plan{ErrorRate: 0.5, DelayRate: 1, Delay: 20 * time.Millisecond, Seed: 1}
	// Two credits: blocks also wait for one past RequestTimeout and are
	// reaped unsent.
	ccfg := rpcrdma.Config{Credits: 2, CQDepth: 16, RequestTimeout: 5 * time.Millisecond}
	scfg := rpcrdma.Config{Credits: 2, CQDepth: 16, AdmitMaxInflight: 1}
	d, err := offload.NewDeploymentWith(env.Table, impls, offload.DeployConfig{
		Connections: 1, ClientCfg: ccfg, ServerCfg: scfg, ClientFaults: &plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st := &Stack{deployment: d, handlerPanics: func() uint64 { return d.Host.Stats().HandlerPanics }}
	st.instrument()
	scrape := scraper(t, st)

	dpu := d.DPUs[0]
	payload := env.GenSmall(mt19937.New(1)).Marshal(nil)
	const calls = 32
	done := 0
	for round := 0; round < calls/8; round++ {
		for i := 0; i < 8; i++ {
			err := dpu.SubmitLocal("/benchpb.Bench/CallSmall", payload, func(uint16, bool, []byte) { done++ })
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := dpu.Progress(); err != nil {
			t.Fatal(err)
		}
	}
	step := func() {
		if _, err := dpu.Progress(); err != nil {
			t.Fatal(err)
		}
		d.ProgressHost()
	}
	for deadline := time.Now().Add(5 * time.Second); done < calls; step() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls resolved", done, calls)
		}
	}
	// The reaped requests' responses are still on their way back.
	for late := time.Now().Add(3 * plan.Delay); time.Now().Before(late); {
		step()
	}
	dc, hc := dpu.Client().Counters, d.HostConns[0].Counters
	for _, c := range []struct {
		series  string
		want    uint64
		nonzero bool
	}{
		{`conn_send_fault_retries_total{conn="0",side="dpu"}`, dc.SendFaultRetries, true},
		{`conn_requests_timed_out_total{conn="0",side="dpu"}`, dc.RequestsTimedOut, true},
		{`conn_late_responses_dropped_total{conn="0",side="dpu"}`, dc.LateResponsesDropped, true},
		{`conn_send_full_recoveries_total{conn="0",side="dpu"}`, dc.SendFullRecoveries, false},
		{`conn_admission_sheds_total{conn="0",side="host"}`, hc.AdmissionSheds, true},
		{`conn_send_fault_retries_total{conn="0",side="host"}`, hc.SendFaultRetries, false},
		{`conn_admission_sheds_total{conn="0",side="dpu"}`, dc.AdmissionSheds, false},
	} {
		v := scrape(c.series)
		if v != float64(c.want) {
			t.Errorf("%s = %v, Counters say %d", c.series, v, c.want)
		}
		if c.nonzero && c.want == 0 {
			t.Errorf("%s: the faulty run never counted one", c.series)
		}
	}
}
