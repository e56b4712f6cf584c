// Command dpurpc-bench regenerates every table and figure of the paper's
// evaluation (Sec. VI). Each experiment drives the real datapath and
// reports the modeled testbed metrics next to the paper's published values;
// connscale and payloadscale run the reconnect machinery and the
// scatter-gather framing over the same deployment.
//
// Usage:
//
//	dpurpc-bench -experiment all
//	dpurpc-bench -experiment table1|fig7|fig8a|fig8b|fig8c|blocksweep|busypoll|allocator|connscale|payloadscale
//	dpurpc-bench -experiment fig8a -requests 50000
//	dpurpc-bench -experiment all -format json                 # one {"experiment","rows"} document each
//	dpurpc-bench -experiment fig8c -host-workers 8 -connections 4
//	dpurpc-bench -experiment payloadscale -payload-size 4194304 -sg-min 1024
//	dpurpc-bench -experiment all -debug-addr localhost:9090   # live /metrics, /trace, /tail
//	dpurpc-bench -experiment all -debug-addr localhost:9090 -pprof  # + /debug/pprof/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"dpurpc/internal/arena"
	"dpurpc/internal/dpu"
	"dpurpc/internal/harness"
	"dpurpc/internal/metrics"
	"dpurpc/internal/trace"
	"dpurpc/internal/workload"
)

func main() {
	which := flag.String("experiment", "all",
		"one of: all, table1, fig7, fig8a, fig8b, fig8c, payloadscale, connscale, blocksweep, busypoll, allocator")
	requests := flag.Int("requests", 20000, "requests per scenario per mode")
	wallIters := flag.Int("fig7-wall-iters", 200, "wall-clock iterations per Fig. 7 point (0 disables)")
	connections := flag.Int("connections", 1, "host<->DPU connections (one DPU poller each)")
	hostWorkers := flag.Int("host-workers", dpu.Default().Host.Cores,
		"host-side duplex workers per connection; >1 runs handlers + response builds in parallel (0 or 1 = on the poller)")
	payloadSize := flag.Int("payload-size", 0,
		"top of the payloadscale payload sweep in bytes (0 = the 1KiB..4MiB default grid)")
	sgMin := flag.Int("sg-min", 0,
		"scatter-gather payload threshold in bytes; >0 enables SG framing for every experiment and sets the payloadscale on-legs (payloadscale defaults its on-legs to 1KiB)")
	format := flag.String("format", "table", `output format: table | json (json writes one {"experiment": name, "rows": ...} document per experiment; fig8a-c share one "fig8" document)`)
	debugAddr := flag.String("debug-addr", "",
		"serve live telemetry on this address while the experiments run (/metrics Prometheus text incl. windowed rates/quantiles, /trace Chrome trace JSON for Perfetto, /anatomy, /tail, /healthz); empty disables")
	traceOut := flag.String("trace-out", "",
		"write the spans collected by -debug-addr's tracer as Chrome trace-event JSON to this file on exit")
	pprofFlag := flag.Bool("pprof", false,
		"mount net/http/pprof profiles under /debug/pprof/ on the -debug-addr mux")
	flag.Parse()
	if *format != "table" && *format != "json" {
		fmt.Fprintf(os.Stderr, "format: %q is neither table nor json\n", *format)
		os.Exit(2)
	}

	opts := harness.DefaultOptions()
	opts.Requests = *requests
	opts.Connections = *connections
	opts.ServerCfg.HostWorkers = *hostWorkers
	opts.SGPayloadMin = *sgMin

	var tracer *trace.Tracer
	if *debugAddr != "" || *traceOut != "" {
		opts.Registry = metrics.NewRegistry()
		tracer = trace.New(trace.Config{})
		tracer.Enable()
		opts.Tracer = tracer
	}
	if *debugAddr != "" {
		opts.Window = metrics.NewRPCWindow()
		srv, err := trace.ListenDebug(*debugAddr, trace.NewDebugMux(trace.DebugOptions{
			Registry: opts.Registry,
			Tracer:   tracer,
			Window:   opts.Window,
			Pprof:    *pprofFlag,
		}))
		if err != nil {
			fmt.Fprintf(os.Stderr, "debug-addr: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		endpoints := "/metrics /trace /anatomy /tail /healthz"
		if *pprofFlag {
			endpoints += " /debug/pprof/"
		}
		fmt.Fprintf(os.Stderr, "telemetry: http://%s (%s)\n", srv.Addr(), endpoints)
	}
	if *traceOut != "" {
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			if err := trace.WriteChrome(f, tracer.Snapshot()); err != nil {
				fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	found := false
	for _, e := range experiments(opts, *wallIters, *payloadSize) {
		var panels []string
		for _, p := range e.panels {
			if *which == "all" || *which == p {
				panels = append(panels, p)
			}
		}
		if len(panels) == 0 {
			continue
		}
		found = true
		rows, table, err := e.run()
		if err == nil && *format == "json" {
			err = enc.Encode(document{Experiment: e.name, Rows: rows})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		if *format == "table" {
			for _, p := range panels {
				table(p)
			}
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "experiment: unknown %q\n", *which)
		os.Exit(2)
	}
}

// document is one experiment's -format json output.
type document struct {
	Experiment string `json:"experiment"`
	Rows       any    `json:"rows"`
}

// An experiment runs once and prints its rows either as one JSON document
// or as the text table of each panel -experiment selects. Only Fig. 8 has
// more than one panel.
type experiment struct {
	name   string   // the JSON document's "experiment"
	panels []string // the -experiment values that select it
	run    func() (rows any, table func(panel string), err error)
}

// single is an experiment with one panel of the same name.
func single[R any](name string, run func() (R, error), table func(R)) experiment {
	return experiment{name, []string{name}, func() (any, func(string), error) {
		rows, err := run()
		return rows, func(string) { table(rows) }, err
	}}
}

// connScaleRows is the connscale sweep plus its overload leg.
type connScaleRows struct {
	Sweep    []harness.ConnScaleRow
	Overload harness.ConnScaleRow
}

// allocatorRows is the Sec. IV-A ablation: both allocators over one
// out-of-order completion trace.
type allocatorRows struct {
	Trace         arena.TraceConfig
	Dynamic, Ring arena.TraceResult
}

// experiments lists every experiment in the order -experiment all runs
// them.
func experiments(opts harness.Options, wallIters, payloadSize int) []experiment {
	fig8Panels := map[string]func([]harness.Fig8Row){
		"fig8a": printFig8a, "fig8b": printFig8b, "fig8c": printFig8c,
	}
	return []experiment{
		single("table1", func() ([]harness.TableIRow, error) { return harness.TableI(opts), nil }, printTable1),
		single("fig7", func() ([]harness.Fig7Row, error) {
			return harness.Fig7(opts, workload.Fig7Counts(), wallIters)
		}, printFig7),
		{"fig8", []string{"fig8a", "fig8b", "fig8c"}, func() (any, func(string), error) {
			rows, err := harness.RunFig8(opts)
			return rows, func(panel string) { fig8Panels[panel](rows) }, err
		}},
		single("payloadscale", func() ([]harness.PayloadScaleRow, error) {
			sizes := harness.DefaultPayloadSizes()
			if payloadSize > 0 {
				sizes = quadruplingSizes(payloadSize)
			}
			return harness.PayloadScale(opts, sizes)
		}, printPayloadScale),
		single("connscale", func() (r connScaleRows, err error) {
			if r.Sweep, err = harness.RunConnScale(opts, harness.DefaultConnScaleCounts()); err != nil {
				return r, err
			}
			r.Overload, err = harness.RunOverload(opts)
			return r, err
		}, printConnScale),
		single("blocksweep", func() ([]harness.SweepRow, error) {
			return harness.BlockSizeSweep(opts, harness.DefaultBlockSizes())
		}, printBlockSweep),
		single("busypoll", func() ([]harness.PollModeRow, error) { return harness.PollModes(opts) }, printPollModes),
		single("allocator", func() (r allocatorRows, err error) {
			r.Trace = arena.DefaultTraceConfig(20000)
			r.Dynamic, r.Ring, err = arena.CompareOutOfOrder(r.Trace)
			return r, err
		}, printAllocatorAblation),
	}
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// quadruplingSizes builds the payload sweep 1 KiB, 4 KiB, 16 KiB, ...
// capped at max.
func quadruplingSizes(max int) []int {
	if max < 1<<10 {
		max = 1 << 10
	}
	var out []int
	for s := 1 << 10; s < max; s *= 4 {
		out = append(out, s)
	}
	return append(out, max)
}

func printPayloadScale(rows []harness.PayloadScaleRow) {
	fmt.Println("== Scatter-gather payload sweep (EchoBlob workload, bytes payloads) ==")
	fmt.Println("   (sg_min=0 copies every payload byte through the object arena; sg_min>0")
	fmt.Println("    places payloads >= sg_min once into descriptor-framed segments and the")
	fmt.Println("    object references them by offset — copied B/req collapses, goodput is")
	fmt.Println("    the deserializer-limited payload rate under the DPU cost model)")
	w := tw()
	fmt.Fprintln(w, "payload\tsg min\tRPS\tcopied B/req\tref B/req\tsg msgs/req\tdeser MB/s\twall req/s (this machine)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.3g\t%.0f\t%.0f\t%.2f\t%.0f\t%.3g\n",
			fmtBytes(r.PayloadBytes), r.SGPayloadMin, r.Result.RPS,
			r.CopiedBytesPerReq, r.RefBytesPerReq, r.SGMsgsPerReq,
			r.DeserGoodputMBps, r.WallRPS)
	}
	w.Flush()
	fmt.Println()
}

// fmtBytes renders a payload size compactly (1 KiB, 4 MiB, ...).
func fmtBytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%d MiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%d KiB", n>>10)
	}
	return fmt.Sprintf("%d B", n)
}

func printTable1(rows []harness.TableIRow) {
	fmt.Println("== Table I: environment and configuration parameters ==")
	w := tw()
	fmt.Fprintln(w, "Parameter\tClient (DPU)\tServer (host)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\n", r.Parameter, r.Client, r.Server)
	}
	w.Flush()
	fmt.Println()
}

func printFig7(rows []harness.Fig7Row) {
	fmt.Println("== Fig. 7: time to deserialize a single message vs element count ==")
	fmt.Println("   (modeled single-core times; paper anchors: int tail 2.75 ns/elem,")
	fmt.Println("    char tail 42.5 ns/KiB, DPU/CPU ratios 1.89x int / 2.51x char)")
	w := tw()
	fmt.Fprintln(w, "series\telements\twire B\tCPU ns\tDPU ns\tDPU/CPU\twall ns (this machine)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.1f\t%.1f\t%.2fx\t%.1f\n",
			r.Kind, r.Count, r.WireBytes, r.CPUNS, r.DPUNS, r.Ratio, r.WallNS)
	}
	w.Flush()
	fmt.Println()
}

func printFig8a(rows []harness.Fig8Row) {
	fmt.Println("== Fig. 8a: average requests per second ==")
	fmt.Println("   (paper: offload matches the baseline; Small reaches ~9e7 RPS)")
	w := tw()
	fmt.Fprintln(w, "scenario\tmode\tRPS\tbottleneck\tmsgs/block")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.3g\t%s\t%.1f\n",
			r.Scenario, r.Mode, r.Result.RPS, r.Result.Bottleneck, r.ReqMsgsPerBlock)
	}
	w.Flush()
	fmt.Println()
}

func printFig8b(rows []harness.Fig8Row) {
	fmt.Println("== Fig. 8b: average PCIe bandwidth ==")
	fmt.Println("   (paper: offload costs more bytes — deserialized objects are bigger;")
	fmt.Println("    x8000 Chars reaches ~180 Gb/s in both modes)")
	w := tw()
	fmt.Fprintln(w, "scenario\tmode\tGb/s\twire B/req\tPCIe B/req")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.0f\t%.0f\n",
			r.Scenario, r.Mode, r.Result.BandwidthGbps, r.WireBytesPerReq, r.PCIeBytesPerReq)
	}
	w.Flush()
	fmt.Println()
}

func printFig8c(rows []harness.Fig8Row) {
	fmt.Println("== Fig. 8c: host CPU usage ==")
	fmt.Println("   (paper reductions: 1.8x Small, 8.0x Ints, 1.53x Chars; ~7 cores freed)")
	w := tw()
	fmt.Fprintln(w, "scenario\tmode\thost cores\tDPU cores\tmin credits")
	byScenario := map[workload.Scenario][2]float64{}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.2f\t%.2f\t%d\n",
			r.Scenario, r.Mode, r.Result.HostCores, r.Result.DPUCores, r.MinCredits)
		v := byScenario[r.Scenario]
		if r.Mode == harness.ModeCPU {
			v[0] = r.Result.HostCores
		} else {
			v[1] = r.Result.HostCores
		}
		byScenario[r.Scenario] = v
	}
	w.Flush()
	for _, s := range workload.Scenarios() {
		v := byScenario[s]
		if v[1] > 0 {
			fmt.Printf("   %s: host CPU reduced %.2fx (%.2f -> %.2f cores, %.1f freed)\n",
				s, v[0]/v[1], v[0], v[1], v[0]-v[1])
		}
	}
	fmt.Println()
}

func printConnScale(c connScaleRows) {
	fmt.Println("== Connection scale-out (reconnect + churn + admission control) ==")
	fmt.Println("   (Echo workload multiplexed over shared poller shards; the churn")
	fmt.Println("    legs kill live connections mid-load — every kill must be absorbed")
	fmt.Println("    by a transparent reconnect, every call resolves exactly once)")
	w := tw()
	fmt.Fprintln(w, "conns\tshards\tchurn\trequests\tok\ttyped fail\tretries\tkills\treconnects\tdead conns\tgoodput req/s\tp50 us\tp99 us")
	for _, r := range c.Sweep {
		fmt.Fprintf(w, "%d\t%d\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.3g\t%.0f\t%.0f\n",
			r.Conns, r.Shards, r.Churn, r.Requests, r.Succeeded, r.Failed,
			r.Retries, r.Kills, r.Reconnects, r.DeadConns,
			r.GoodputRPS, r.P50US, r.P99US)
	}
	w.Flush()
	o := c.Overload
	fmt.Printf("   overload (admit<=%d, no client retries): %d ok, %d shed typed UNAVAILABLE (DPU %d) in %.3fs\n",
		o.DPUAdmitMaxInflight, o.Succeeded, o.Failed, o.DPUSheds, o.WallSeconds)
	fmt.Println()
}

func printBlockSweep(rows []harness.SweepRow) {
	fmt.Println("== Block-size sweep (Sec. VI-A: optimum around 8 KiB) ==")
	w := tw()
	fmt.Fprintln(w, "block size\tRPS\tmsgs/block")
	best := 0
	for i, r := range rows {
		if r.RPS > rows[best].RPS {
			best = i
		}
		fmt.Fprintf(w, "%d KiB\t%.3g\t%.1f\n", r.BlockSize>>10, r.RPS, r.MsgsPerBlock)
	}
	w.Flush()
	fmt.Printf("   best: %d KiB\n\n", rows[best].BlockSize>>10)
}

func printPollModes(rows []harness.PollModeRow) {
	fmt.Println("== Poll-mode comparison (Sec. III-C: busy poll ~10% faster, 100% CPU) ==")
	w := tw()
	fmt.Fprintln(w, "mode\tRPS\thost CPU%\tDPU CPU%")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3g\t%.0f%%\t%.0f%%\n", r.Mode, r.RPS, r.HostCPUPercent, r.DPUCPUPercent)
	}
	w.Flush()
	if len(rows) == 2 && rows[1].RPS > 0 {
		fmt.Printf("   busy-poll speedup: %.1f%%\n\n", 100*(rows[0].RPS/rows[1].RPS-1))
	}
}

// printAllocatorAblation regenerates the Sec. IV-A design comparison.
func printAllocatorAblation(r allocatorRows) {
	fmt.Println("== Allocator ablation (Sec. IV-A: dynamic allocation vs ring buffer) ==")
	fmt.Println("   (out-of-order completion trace: 4 KiB blocks, 8 in flight, 64 KiB space)")
	cfg, dyn, ring := r.Trace, r.Dynamic, r.Ring
	w := tw()
	fmt.Fprintln(w, "allocator\tcompleted\tstalls\tstall %")
	fmt.Fprintf(w, "offset-based dynamic (VMA-style)\t%d/%d\t%d\t%.1f%%\n",
		dyn.Completed, cfg.Ops, dyn.Stalls, 100*float64(dyn.Stalls)/float64(cfg.Ops))
	fmt.Fprintf(w, "ring buffer (FIFO frees)\t%d/%d\t%d\t%.1f%%\n",
		ring.Completed, cfg.Ops, ring.Stalls, 100*float64(ring.Stalls)/float64(cfg.Ops))
	w.Flush()
	fmt.Println("   paper: out-of-order completion makes \"dynamic allocation a better")
	fmt.Println("   solution than standard ring buffers\"")
	fmt.Println()
}
