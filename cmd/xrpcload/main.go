// Command xrpcload serves and drives the benchmark service over real TCP —
// the xRPC clients of Fig. 1. It can start either deployment (the DPU
// termination is simulated in-process) and generate pipelined load against
// any xRPC address.
//
// Serve the offloaded stack (with the live telemetry endpoint):
//
//	xrpcload -serve -mode offload -addr 127.0.0.1:7788 -debug-addr 127.0.0.1:9090
//
// Drive load against it from another terminal:
//
//	xrpcload -addr 127.0.0.1:7788 -scenario small -n 200000 -pipeline 256
//
// While load runs, http://127.0.0.1:9090/metrics serves the per-method RPC
// series as Prometheus text and /trace serves the recorded datapath spans as
// Chrome trace-event JSON (open it in Perfetto or chrome://tracing).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"dpurpc"
	"dpurpc/internal/metrics"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/trace"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

func main() {
	serve := flag.Bool("serve", false, "run a server instead of generating load")
	mode := flag.String("mode", "offload", "server mode: offload | baseline")
	addr := flag.String("addr", "127.0.0.1:7788", "xRPC address")
	scenario := flag.String("scenario", "small", "workload: small | ints | chars | blob (EchoBlob, sized by -payload-size)")
	n := flag.Int("n", 100000, "requests to send")
	pipeline := flag.Int("pipeline", 256, "in-flight requests per connection")
	conns := flag.Int("conns", 1, "client connections")
	payloadSize := flag.Int("payload-size", 64<<10, "blob scenario payload bytes")
	sgMin := flag.Int("sg-min", 0,
		"scatter-gather payload threshold in bytes for the offload server (0 disables SG framing)")
	cacheMethods := flag.String("cache-methods", "",
		"comma-separated full method names (/benchpb.Bench/CallSmall,...) opted into the DPU-resident response cache; empty disables")
	debugAddr := flag.String("debug-addr", "",
		"serve live telemetry on this address while serving (/metrics, /trace, /anatomy, /tail, /gauges, /healthz); empty disables")
	pprofFlag := flag.Bool("pprof", false,
		"mount net/http/pprof profiles under /debug/pprof/ on the -debug-addr mux")
	flag.Parse()

	if *serve {
		runServer(*mode, *addr, *debugAddr, *sgMin, *cacheMethods, *pprofFlag)
		return
	}
	runClient(*addr, *scenario, *n, *pipeline, *conns, *payloadSize)
}

func benchSchema() *dpurpc.Schema {
	schema, err := dpurpc.ParseSchema("bench.proto", workload.Schema)
	if err != nil {
		fatal(err)
	}
	return schema
}

func emptyImpls(schema *dpurpc.Schema) map[string]dpurpc.Impl {
	empty := func(req dpurpc.View) (*dpurpc.Message, uint16) { return nil, 0 }
	return map[string]dpurpc.Impl{
		"benchpb.Bench": {"CallSmall": empty, "CallInts": empty, "CallChars": empty, "Echo": empty, "EchoBlob": empty},
	}
}

func runServer(mode, addr, debugAddr string, sgMin int, cacheMethods string, pprofEnabled bool) {
	schema := benchSchema()
	var opts dpurpc.StackOptions
	var tracer *trace.Tracer
	opts.SGPayloadMin = sgMin
	if cacheMethods != "" {
		opts.CacheMethods = strings.Split(cacheMethods, ",")
	}
	if debugAddr != "" {
		opts.Registry = metrics.NewRegistry()
		opts.Window = metrics.NewRPCWindow()
		if mode == "offload" {
			tracer = trace.New(trace.Config{})
			tracer.Enable()
			opts.Tracer = tracer
		}
	}
	var stack *dpurpc.Stack
	var err error
	switch mode {
	case "offload":
		stack, err = dpurpc.NewOffloadedStack(schema, emptyImpls(schema), opts)
	case "baseline":
		stack, err = dpurpc.NewBaselineStack(schema, emptyImpls(schema), opts)
	default:
		fatal(fmt.Errorf("unknown mode %q", mode))
	}
	if err != nil {
		fatal(err)
	}
	defer stack.Close()
	if debugAddr != "" {
		// /anatomy footer: the live copied-vs-referenced payload split of the
		// deserialization stage (the byte movement SG framing removes).
		var anatomyExtra func(w io.Writer)
		if d := stack.Deployment(); d != nil {
			anatomyExtra = func(w io.Writer) {
				var copied, reffed, reqs uint64
				for _, dpuSrv := range d.DPUs {
					st := dpuSrv.Stats()
					copied += st.Deser.CopyBytes
					reffed += st.Deser.RefBytes
					reqs += st.Requests
				}
				if reqs > 0 {
					fmt.Fprintf(w, "payload bytes/req (sg_min=%d): copied=%.1f referenced=%.1f\n",
						sgMin, float64(copied)/float64(reqs), float64(reffed)/float64(reqs))
					// timer near or above 1 means requests wait out the
					// pollers' heartbeat (see Deployment.PollerWakes).
					cqe, kick, timer := d.PollerWakes()
					fmt.Fprintf(w, "poller wake-ups/req by reason: cqe=%.2f kick=%.2f timer=%.2f\n",
						float64(cqe)/float64(reqs), float64(kick)/float64(reqs), float64(timer)/float64(reqs))
				}
				// Response-cache hit rate: hits never appear in the stage
				// table (they skip every stage), so without this row
				// /anatomy would silently describe only the misses.
				if d.Cache != nil {
					var hits, misses uint64
					for _, dpuSrv := range d.DPUs {
						st := dpuSrv.Stats()
						hits += st.CacheHits
						misses += st.CacheMisses
					}
					if probes := hits + misses; probes > 0 {
						fmt.Fprintf(w, "rpc cache: hit-rate=%.3f (%d hits / %d probes), resident=%d entries %d bytes\n",
							float64(hits)/float64(probes), hits, probes,
							d.Cache.Len(), d.Cache.Bytes())
					}
				}
			}
		}
		// Resource gauges: poll the xRPC front end's bounds and, on the
		// offloaded stack, the per-connection occupancy numbers (arena bytes,
		// queue depths, credits) at a low rate into /gauges series and
		// /metrics mirrors.
		smp := metrics.NewSampler(100*time.Millisecond, 256, opts.Registry)
		stack.RegisterGauges(smp)
		smp.Start()
		defer smp.Stop()
		dbg, err := trace.ListenDebug(debugAddr, trace.NewDebugMux(trace.DebugOptions{
			Registry:     opts.Registry,
			Tracer:       tracer,
			AnatomyExtra: anatomyExtra,
			Window:       stack.Window(),
			Sampler:      smp,
			Pprof:        pprofEnabled,
		}))
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		endpoints := "/metrics /trace /anatomy /tail /healthz /gauges"
		if pprofEnabled {
			endpoints += " /debug/pprof/"
		}
		fmt.Printf("xrpcload: telemetry on http://%s (%s)\n", dbg.Addr(), endpoints)
	}
	bound, err := stack.ListenAndServe(addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("xrpcload: %s server on %s (benchpb.Bench, empty business logic)\n", mode, bound)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("xrpcload: shutting down")
}

func runClient(addr, scenarioName string, n, pipeline, conns, payloadSize int) {
	env := workload.NewEnv()
	var methodID uint16
	var gen func(rng *mt19937.Source) []byte
	switch scenarioName {
	case "small":
		methodID = workload.MethodSmall
		gen = func(rng *mt19937.Source) []byte { return env.GenSmall(rng).Marshal(nil) }
	case "ints":
		methodID = workload.MethodInts
		gen = func(rng *mt19937.Source) []byte { return env.GenIntsFig8(rng).Marshal(nil) }
	case "chars":
		methodID = workload.MethodChars
		gen = func(rng *mt19937.Source) []byte { return env.GenChars(rng, workload.CharsCount).Marshal(nil) }
	case "blob":
		methodID = workload.MethodEchoBlob
		gen = func(rng *mt19937.Source) []byte { return env.GenBlob(rng, payloadSize).Marshal(nil) }
	default:
		fatal(fmt.Errorf("unknown scenario %q", scenarioName))
	}
	method := xrpc.FullMethodName("benchpb.Bench", env.Service.Methods[methodID].Name)

	// Pre-generate distinct payloads per connection.
	perConn := n / conns
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := mt19937.New(uint32(mt19937.DefaultSeed + c))
			payloads := make([][]byte, 32)
			for i := range payloads {
				payloads[i] = gen(rng)
			}
			client, err := xrpc.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			var mu sync.Mutex
			done := 0
			cond := sync.NewCond(&mu)
			inflight := 0
			for i := 0; i < perConn; i++ {
				mu.Lock()
				for inflight >= pipeline {
					cond.Wait()
				}
				inflight++
				mu.Unlock()
				err := client.Go(method, payloads[i%len(payloads)],
					func(status uint16, _ []byte, err error) {
						mu.Lock()
						inflight--
						done++
						cond.Signal()
						mu.Unlock()
						if err != nil || status != xrpc.StatusOK {
							select {
							case errs <- fmt.Errorf("call failed: status=%d err=%v", status, err):
							default:
							}
						}
					})
				if err != nil {
					errs <- err
					return
				}
				if i%64 == 63 {
					client.Flush()
				}
			}
			client.Flush()
			mu.Lock()
			for done < perConn {
				cond.Wait()
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		fatal(err)
	default:
	}
	total := perConn * conns
	fmt.Printf("xrpcload: %d %s requests over %d conn(s) in %v: %.0f req/s (wall-clock, this machine)\n",
		total, scenarioName, conns, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "xrpcload: %v\n", err)
	os.Exit(1)
}
