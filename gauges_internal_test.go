package dpurpc

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/metrics"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/offload"
	"dpurpc/internal/protomsg"
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
