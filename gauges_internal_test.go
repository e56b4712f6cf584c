package dpurpc

import (
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/fabric"
	"dpurpc/internal/fault"
	"dpurpc/internal/metrics"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/offload"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/rdma"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// scraper samples a stack's gauges and reads one series from the registry
// text, the way /metrics serves it.
func scraper(t *testing.T, st *Stack) func(series string) float64 {
	return registryScraper(t, st.RegisterGauges)
}

// registryScraper is scraper for the series register adds.
func registryScraper(t *testing.T, register func(*metrics.Sampler)) func(series string) float64 {
	reg := metrics.NewRegistry()
	smp := metrics.NewSampler(time.Hour, 4, reg) // sampled by hand
	register(smp)
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

// The connection buffers' registration cache is on /metrics: a second
// deployment in the process takes the first one's four buffers from the
// cache instead of allocating them, and the resident set size that holds
// them is exported too.
func TestBufferCacheOnMetrics(t *testing.T) {
	env := workload.NewEnv()
	none := func(abi.View) (*protomsg.Message, uint16) { return nil, 0 }
	impls := map[string]Impl{"benchpb.Bench": {
		"CallSmall": none, "CallInts": none, "CallChars": none, "Echo": none, "EchoBlob": none,
	}}
	const hits, misses = "rpcrdma_buffer_cache_hits_total", "rpcrdma_buffer_cache_misses_total"
	first, err := NewOffloadedStack(&Schema{Table: env.Table}, impls, StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scrape := scraper(t, first)
	hits0, misses0 := scrape(hits), scrape(misses)
	if misses0 < 4 {
		t.Errorf("%s = %v after a first deployment allocated its four buffers", misses, misses0)
	}
	first.Close()
	second, err := NewOffloadedStack(&Schema{Table: env.Table}, impls, StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	scrape = scraper(t, second)
	if h, m := scrape(hits), scrape(misses); h <= hits0 {
		t.Errorf("second deployment: %s %v -> %v, %s %v -> %v; want recycled buffers",
			hits, hits0, h, misses, misses0, m)
	}
	if rss := scrape("process_resident_memory_bytes"); rss <= 0 {
		t.Errorf("process_resident_memory_bytes = %v", rss)
	}
}

// Each DPU server's sheds, reconnects and redial failures are on /metrics,
// labelled by connection. The deployment is stepped by hand: with one call
// queued on the poller, a DPUAdmitMaxInflight of 1 sheds the next one, and a
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
		t.Fatalf("statuses %v after two calls against DPUAdmitMaxInflight=1, want the second shed UNAVAILABLE", statuses)
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

// conn_gather_bytes_total counts the SG payload bytes each sender posted
// straight from caller memory: on the DPU the segment bytes of every SG
// request, and on the host those of every SG object response, which the
// echo sets by reference into the request block. Both read 0 without SG
// framing, and the host's reads 0 when it marshals its responses.
func TestGatherBytesOnMetrics(t *testing.T) {
	env := workload.NewEnv()
	echo := func(req abi.View) (*protomsg.Message, uint16) {
		out := protomsg.New(env.Blob)
		if err := out.SetBytes("data", req.StrName("data")); err != nil {
			t.Error(err)
		}
		return out, 0
	}
	none := func(abi.View) (*protomsg.Message, uint16) { return nil, 0 }
	impls := map[string]Impl{"benchpb.Bench": {
		"CallSmall": none, "CallInts": none, "CallChars": none, "Echo": none, "EchoBlob": echo,
	}}
	req := env.GenBlob(mt19937.New(3), 4096)
	payload := req.Marshal(nil)
	const calls = 5
	for _, mode := range []struct {
		sgMin       int
		respObjects bool
	}{{0, false}, {1024, false}, {1024, true}} {
		sgMin := mode.sgMin
		d, err := offload.NewDeploymentWith(env.Table, impls, offload.DeployConfig{
			Connections: 1, SGPayloadMin: sgMin, OffloadResponseSerialization: mode.respObjects,
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
			t.Errorf("%+v: dpu conn_gather_bytes_total = %v, want %v (SGBytesSent %d)",
				mode, v, want, dpu.Client().Counters.SGBytesSent)
		}
		if !mode.respObjects {
			want = 0
		}
		if v := scrape(`conn_gather_bytes_total{conn="0",side="host"}`); v != want || want != float64(d.HostConn(0).Counters.SGBytesSent) {
			t.Errorf("%+v: host conn_gather_bytes_total = %v, want %v (SGBytesSent %d)",
				mode, v, want, d.HostConn(0).Counters.SGBytesSent)
		}
		d.Close()
	}
}

// Each endpoint's failure counters are on /metrics as conn_*_total series
// equal to its Counters fields. The DPU's posts fail at random and every
// request block lands 20 ms late, past a 5 ms RequestTimeout: the DPU
// retries the rejected posts, reaps every request, sent or not, and drops
// the late responses. No arena runs out, so the recoveries series stays 0.
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
	ccfg.Faults = &plan
	scfg := rpcrdma.Config{Credits: 2, CQDepth: 16}
	d, err := offload.NewDeploymentWith(env.Table, impls, offload.DeployConfig{
		Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
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
	dc, hc := dpu.Client().Counters, d.HostConn(0).Counters
	for _, c := range []struct {
		series  string
		want    uint64
		nonzero bool
	}{
		{`conn_send_fault_retries_total{conn="0",side="dpu"}`, dc.SendFaultRetries, true},
		{`conn_requests_timed_out_total{conn="0",side="dpu"}`, dc.RequestsTimedOut, true},
		{`conn_late_responses_dropped_total{conn="0",side="dpu"}`, dc.LateResponsesDropped, true},
		{`conn_send_full_recoveries_total{conn="0",side="dpu"}`, dc.SendFullRecoveries, false},
		{`conn_send_fault_retries_total{conn="0",side="host"}`, hc.SendFaultRetries, false},
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

// The host's response pipeline failures are on /metrics, each series equal
// to its Counters field: a burst whose 3000-byte responses outgrow the
// host's 256 KiB send arena waits for acknowledgments
// (conn_send_full_recoveries_total), and every seventh response build fails
// and is answered with the error status (conn_response_build_failures_total).
func TestHostResponseFailuresOnMetrics(t *testing.T) {
	cfg := rpcrdma.Config{BlockSize: 4096, Credits: 8, SBufSize: 1 << 18, CQDepth: 64, BusyPoll: true}
	link := fabric.NewLink()
	poller := rpcrdma.NewServerPoller(cfg)
	defer poller.Close()
	cc, sc, err := rpcrdma.Connect(rdma.NewDevice("dpu", link, fabric.DPUToHost),
		rdma.NewDevice("host", link, fabric.HostToDPU), cfg, cfg, poller,
		func(req rpcrdma.Request) rpcrdma.ResponseSpec {
			fail := req.Payload[0]%7 == 5
			return rpcrdma.ResponseSpec{Size: 3000, Build: func([]byte, uint64) (uint32, int, error) {
				if fail {
					return 0, 0, errors.New("deliberate build failure")
				}
				return 0, 3000, nil
			}}
		})
	if err != nil {
		t.Fatal(err)
	}
	const calls = 100
	done, failed := 0, 0
	for i := 0; i < calls; i++ {
		err := cc.Enqueue(rpcrdma.CallSpec{
			Size: 16,
			Build: func(dst []byte, _ uint64) (uint32, int, error) {
				dst[0] = byte(i)
				return 0, 16, nil
			},
			OnResponse: func(resp rpcrdma.Response) {
				done++
				if resp.Err {
					failed++
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); done < calls; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls answered", done, calls)
		}
		if _, err := cc.Progress(); err != nil {
			t.Fatal(err)
		}
		if _, err := poller.Progress(); err != nil {
			t.Fatal(err)
		}
	}
	scrape := registryScraper(t, func(smp *metrics.Sampler) {
		registerConnGauges(smp, map[string]string{"conn": "0", "side": "host"}, sc.Gauges)
	})
	hc := sc.Counters
	for _, c := range []struct {
		series string
		want   uint64
	}{
		{`conn_send_full_recoveries_total{conn="0",side="host"}`, hc.SendFullRecoveries},
		{`conn_response_build_failures_total{conn="0",side="host"}`, hc.DuplexTombstones},
	} {
		if v := scrape(c.series); v != float64(c.want) || c.want == 0 {
			t.Errorf("%s = %v, Counters say %d (want > 0)", c.series, v, c.want)
		}
	}
	if failed != calls/7 || hc.DuplexTombstones != calls/7 {
		t.Errorf("%d error responses, %d tombstones, want %d", failed, hc.DuplexTombstones, calls/7)
	}
}

// The conn_* series follow a reconnect: each sample reads the connection's
// current pair, not the endpoints the sampler saw at registration. The old
// pair is left with a response block its DPU never acknowledged, then
// broken and replaced; five 4 KiB SG calls run on the replacement. The
// dpu-side gather bytes must be the live client's 20480, not the dead
// client's 0, and every host-side series must read the replacement server
// end.
func TestConnGaugesFollowReconnect(t *testing.T) {
	env := workload.NewEnv()
	echo := func(req abi.View) (*protomsg.Message, uint16) { return env.GenBlob(mt19937.New(4), 4096), 0 }
	none := func(abi.View) (*protomsg.Message, uint16) { return nil, 0 }
	impls := map[string]Impl{"benchpb.Bench": {
		"CallSmall": none, "CallInts": none, "CallChars": none, "Echo": none, "EchoBlob": echo,
	}}
	d, err := offload.NewDeploymentWith(env.Table, impls, offload.DeployConfig{
		Connections: 1, SGPayloadMin: 1024, ReconnectBudget: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st := &Stack{deployment: d, handlerPanics: func() uint64 { return d.Host.Stats().HandlerPanics }}
	st.instrument()
	scrape := scraper(t, st)
	dpu := d.DPUs[0]
	step := func() {
		if _, err := dpu.Progress(); err != nil {
			t.Fatal(err)
		}
		d.ProgressHost()
	}
	pump := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !done(); step() {
			if time.Now().After(deadline) {
				t.Fatalf("stepped deployment never reached: %s", what)
			}
		}
	}

	// One small call the host answers but the DPU never reads: the old host
	// end keeps its response block unacknowledged.
	small := env.GenSmall(mt19937.New(1)).Marshal(nil)
	if err := dpu.SubmitLocal("/benchpb.Bench/CallSmall", small, func(uint16, bool, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := dpu.Progress(); err != nil {
		t.Fatal(err)
	}
	oldHost := d.HostConn(0)
	pump("host answered", func() bool { return oldHost.Counters.ResponsesSent == 1 })
	oldClient := dpu.Client()
	dpu.Break()
	pump("reconnect", func() bool { return dpu.Stats().Reconnects == 1 })

	req := env.GenBlob(mt19937.New(3), 4096).Marshal(nil)
	const calls = 5
	done := 0
	for i := 0; i < calls; i++ {
		err := dpu.SubmitLocal("/benchpb.Bench/EchoBlob", req, func(status uint16, _ bool, _ []byte) {
			if status != xrpc.StatusOK {
				t.Errorf("status %d", status)
			}
			done++
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pump("five SG calls", func() bool { return done == calls })
	// Past the reap, nothing updates the old host end's gauges.
	pump("old host end reaped", func() bool { return len(d.Poller.DeadCounters()) == 1 })

	live := dpu.Client()
	if live == oldClient || d.HostConn(0) == oldHost {
		t.Fatal("the reconnect did not replace both ends")
	}
	if g := live.Counters.GatherBytes; g != calls*4096 {
		t.Fatalf("live client gathered %d bytes, want %d", g, calls*4096)
	}
	if v := scrape(`conn_gather_bytes_total{conn="0",side="dpu"}`); v != float64(live.Counters.GatherBytes) {
		t.Errorf(`conn_gather_bytes_total{side="dpu"} = %v, live client's GatherBytes %d`, v, live.Counters.GatherBytes)
	}
	host, old := d.HostConn(0).Gauges(), oldHost.Gauges()
	differs := false
	for _, s := range []struct {
		series   string
		new, old int64
	}{
		{"conn_arena_in_use_bytes", int64(host.ArenaInUse.Load()), int64(old.ArenaInUse.Load())},
		{"conn_unacked_blocks", host.Unacked.Load(), old.Unacked.Load()},
		{"conn_credits", host.Credits.Load(), old.Credits.Load()},
		{"conn_acks_pending", host.AcksPending.Load(), old.AcksPending.Load()},
	} {
		if v := scrape(s.series + `{conn="0",side="host"}`); v != float64(s.new) {
			t.Errorf(`%s{side="host"} = %v, replacement server end reads %d (old one %d)`, s.series, v, s.new, s.old)
		}
		differs = differs || s.new != s.old
	}
	if !differs {
		t.Fatal("fixture: the old and the replacement host end read alike, so the host series cannot tell them apart")
	}
}
