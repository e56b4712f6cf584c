// telemetry: the paper's measurement methodology (Sec. VI) as a running
// service. The RPC-over-RDMA library is instrumented with a Prometheus-style
// client; a monitor samples the counters on a fixed period, computes the
// instant rate of increase from the last two data points, waits until the
// request rate is stable within 1%, and then reports the final metrics —
// exactly how the paper's harness collects its results. The metrics are
// also exposed in the Prometheus text format over HTTP.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"dpurpc"
	"dpurpc/internal/fabric"
	"dpurpc/internal/metrics"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

func main() {
	schema, err := dpurpc.ParseSchema("bench.proto", workload.Schema)
	if err != nil {
		log.Fatal(err)
	}
	empty := func(req dpurpc.View) (*dpurpc.Message, uint16) { return nil, 0 }
	// Instrument the datapath itself (DPU->host->DPU), as the paper does
	// "directly at the library level" (Sec. VI): every DPU server records
	// each request's admit-to-delivery latency into the stack's window.
	reg := metrics.NewRegistry()
	stack, err := dpurpc.NewOffloadedStack(schema, map[string]dpurpc.Impl{
		"benchpb.Bench": {"CallSmall": empty, "CallInts": empty, "CallChars": empty, "Echo": empty, "EchoBlob": empty},
	}, dpurpc.StackOptions{Window: metrics.NewRPCWindow()})
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	addr, err := stack.ListenAndServe("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}

	// The Prometheus-style registry also mirrors the library counters.
	d := stack.Deployment()
	requests := reg.Counter("rpc_requests_total", "Requests processed by the host.", map[string]string{"mode": "offload"})
	pcieBytes := reg.Counter("pcie_bytes_total", "Bytes moved over the host-DPU link.", nil)
	rpsGauge := reg.Gauge("rpc_instant_rps", "Instant rate of increase of the request counter.", nil)
	latency := reg.Histogram("rpc_client_latency_us", "Client-observed call latency.", nil,
		[]float64{10, 50, 100, 500, 1000, 5000})

	// Expose /metrics.
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, reg.Render())
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(mln)
	defer srv.Close()
	fmt.Printf("service on %s, metrics on http://%s/metrics\n", addr, mln.Addr())

	// Background load: pipelined small-message calls.
	stop := make(chan struct{})
	var sent atomic.Uint64
	go func() {
		client, err := xrpc.Dial(addr)
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		env := workload.NewEnv()
		rng := mt19937.New(mt19937.DefaultSeed)
		payload := env.GenSmall(rng).Marshal(nil)
		inflight := make(chan struct{}, 256)
		for {
			select {
			case <-stop:
				return
			default:
			}
			inflight <- struct{}{}
			start := time.Now()
			client.Go("/benchpb.Bench/CallSmall", payload, func(status uint16, _ []byte, err error) {
				latency.Observe(float64(time.Since(start).Microseconds()))
				<-inflight
				sent.Add(1)
			})
			client.Flush()
		}
	}()

	// The monitor: sample on a fixed period and wait for the rate to
	// stabilize. The paper samples ~10s windows and requires 1%; this
	// example uses 500ms windows with a 5% tolerance so it finishes in
	// seconds despite OS scheduling noise.
	mon := metrics.NewRateMonitor()
	mon.Tolerance = 0.05
	start := time.Now()
	for i := 0; ; i++ {
		time.Sleep(500 * time.Millisecond)
		hostReqs := d.Host.Stats().Requests
		requests.Set(hostReqs)
		pcieBytes.Set(d.Link.TotalBytes())
		rate := mon.Sample(time.Since(start).Seconds(), hostReqs)
		rpsGauge.Set(rate)
		fmt.Printf("t=%4.1fs requests=%8d instant-rate=%9.0f req/s stable=%v\n",
			time.Since(start).Seconds(), hostReqs, rate, mon.IsStable())
		if mon.IsStable() && mon.Samples() >= 5 {
			break
		}
		if i > 100 {
			log.Fatal("rate never stabilized")
		}
	}
	close(stop)

	fmt.Println("\n--- final metrics (rate stable within 1%) ---")
	fmt.Printf("stable rate:        %.0f req/s (wall-clock, this machine)\n", mon.Rate())
	fmt.Printf("p50 client latency: %v us (TCP + datapath)\n", latency.Quantile(0.5))
	win := stack.Window().LatencyUS.Snapshot()
	fmt.Printf("p50 dpu datapath:   %v us (library-level instrumentation, trailing %v)\n", win.Quantile(0.5), win.Window)
	d2h := d.Link.Stats(fabric.DPUToHost)
	h2d := d.Link.Stats(fabric.HostToDPU)
	fmt.Printf("pcie dpu->host:     %d blocks, %d KiB\n", d2h.Transfers, d2h.TotalBytes()>>10)
	fmt.Printf("pcie host->dpu:     %d blocks, %d KiB\n", h2d.Transfers, h2d.TotalBytes()>>10)
	fmt.Printf("dpu deserialized:   %d messages\n", d.DPUs[0].Stats().Deser.Messages)
	fmt.Println("\n--- prometheus exposition ---")
	fmt.Print(reg.Render())
}
