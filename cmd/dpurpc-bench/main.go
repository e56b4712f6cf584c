// Command dpurpc-bench regenerates every table and figure of the paper's
// evaluation (Sec. VI). Each experiment drives the real datapath and
// reports the modeled testbed metrics next to the paper's published values.
//
// Usage:
//
//	dpurpc-bench -experiment all
//	dpurpc-bench -experiment fig7|fig8a|fig8b|fig8c|table1|blocksweep|busypoll|llc
//	dpurpc-bench -experiment fig8a -requests 50000
//	dpurpc-bench -experiment respscale -host-workers 8 -connections 4
//	dpurpc-bench -experiment batchscale -commit-batch 32
//	dpurpc-bench -experiment payloadscale -payload-size 4194304 -sg-min 1024
//	dpurpc-bench -experiment anatomy -requests 4000 -sg-min 1024
//	dpurpc-bench -experiment tailscale -requests 4000         # windowed p99 -> exemplar anatomies
//	dpurpc-bench -experiment all -debug-addr localhost:9090   # live /metrics, /trace, /tail
//	dpurpc-bench -experiment all -debug-addr localhost:9090 -pprof  # + /debug/pprof/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"dpurpc/internal/arena"
	"dpurpc/internal/dpu"
	"dpurpc/internal/harness"
	"dpurpc/internal/metrics"
	"dpurpc/internal/trace"
	"dpurpc/internal/workload"
)

func main() {
	experiment := flag.String("experiment", "all",
		"one of: all, fig7, fig8a, fig8b, fig8c, table1, blocksweep, busypoll, allocator, latency, llc, respscale, batchscale, payloadscale, cachescale, anatomy, chaos, connscale, tailscale, deserspeed")
	requests := flag.Int("requests", 20000, "requests per scenario per mode")
	wallIters := flag.Int("fig7-wall-iters", 200, "wall-clock iterations per Fig. 7 point (0 disables)")
	connections := flag.Int("connections", 1, "host<->DPU connections (one DPU poller each)")
	hostWorkers := flag.Int("host-workers", dpu.Default().Host.Cores,
		"host-side duplex workers per connection; >1 runs handlers + response builds in parallel (1 = serial response path); also the top of the respscale sweep")
	commitBatch := flag.Int("commit-batch", 1,
		"commit/doorbell coalescing target on both sides of every connection (1 = flush every pass); >1 also sets the top of the batchscale sweep")
	commitFlushUS := flag.Int("commit-flush-us", 0,
		"coalescing flush timeout in microseconds (0 = the 50us default when batching)")
	payloadSize := flag.Int("payload-size", 0,
		"top of the payloadscale payload sweep in bytes (0 = the 1KiB..4MiB default grid)")
	sgMin := flag.Int("sg-min", 0,
		"scatter-gather payload threshold in bytes; >0 enables SG framing for every experiment and sets the payloadscale on-legs (payloadscale defaults its on-legs to 1KiB)")
	format := flag.String("format", "table", "output format: table | csv | json (csv and json cover fig7, fig8, respscale, and anatomy)")
	debugAddr := flag.String("debug-addr", "",
		"serve live telemetry on this address while the experiments run (/metrics Prometheus text incl. windowed rates/quantiles, /trace Chrome trace JSON for Perfetto, /anatomy, /tail, /healthz); empty disables")
	traceOut := flag.String("trace-out", "",
		"write the spans collected by -debug-addr's tracer as Chrome trace-event JSON to this file on exit")
	tailExemplars := flag.Int("tail-exemplars", 0,
		"how many windowed-histogram exemplars the tailscale experiment resolves to span anatomies (0 = 8)")
	pprofFlag := flag.Bool("pprof", false,
		"mount net/http/pprof profiles under /debug/pprof/ on the -debug-addr mux")
	flag.Parse()

	opts := harness.DefaultOptions()
	opts.Requests = *requests
	opts.Connections = *connections
	opts.HostWorkers = *hostWorkers
	opts.CommitBatch = *commitBatch
	opts.CommitFlushTimeout = time.Duration(*commitFlushUS) * time.Microsecond
	opts.SGPayloadMin = *sgMin
	opts.TailExemplars = *tailExemplars
	csv := *format == "csv"
	jsonOut := *format == "json"

	var tracer *trace.Tracer
	if *debugAddr != "" || *traceOut != "" {
		opts.Registry = metrics.NewRegistry()
		tracer = trace.New(trace.Config{})
		tracer.Enable()
		opts.Tracer = tracer
	}
	if *debugAddr != "" {
		opts.Window = metrics.NewRPCWindow()
		srv, err := trace.ListenDebug(*debugAddr, trace.NewDebugMuxOpts(trace.DebugOptions{
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

	run := func(name string, f func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("table1", func() error { return printTable1(opts) })
	run("fig7", func() error {
		if jsonOut {
			return printFig7JSON(opts, *wallIters)
		}
		if csv {
			return printFig7CSV(opts, *wallIters)
		}
		return printFig7(opts, *wallIters)
	})

	var fig8 []harness.Fig8Row
	needFig8 := *experiment == "all" || strings.HasPrefix(*experiment, "fig8")
	if needFig8 {
		var err error
		fig8, err = harness.RunFig8(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig8: %v\n", err)
			os.Exit(1)
		}
	}
	if jsonOut && needFig8 {
		run("fig8a", func() error { return printFig8JSON(fig8) })
		run("fig8b", func() error { return nil })
		run("fig8c", func() error { return nil })
	} else if csv && needFig8 {
		run("fig8a", func() error { return printFig8CSV(fig8) })
		run("fig8b", func() error { return nil })
		run("fig8c", func() error { return nil })
	} else {
		run("fig8a", func() error { return printFig8a(fig8) })
		run("fig8b", func() error { return printFig8b(fig8) })
		run("fig8c", func() error { return printFig8c(opts, fig8) })
	}
	run("respscale", func() error {
		workers := doublingSweep(*hostWorkers)
		conns := doublingSweep(*connections)
		rows, err := harness.ResponseScalingGrid(opts, conns, workers)
		if err != nil {
			return err
		}
		if jsonOut {
			return printRespScaleJSON(rows)
		}
		if csv {
			return printRespScaleCSV(rows)
		}
		return printRespScale(rows)
	})
	run("batchscale", func() error {
		batches := harness.DefaultCommitBatches()
		if *commitBatch > 1 {
			batches = doublingSweep(*commitBatch)
		}
		rows, err := harness.BatchScale(opts, batches)
		if err != nil {
			return err
		}
		if jsonOut {
			return printBatchScaleJSON(rows)
		}
		if csv {
			return printBatchScaleCSV(rows)
		}
		return printBatchScale(rows)
	})
	run("payloadscale", func() error {
		sizes := harness.DefaultPayloadSizes()
		if *payloadSize > 0 {
			sizes = quadruplingSizes(*payloadSize)
		}
		rows, err := harness.PayloadScale(opts, sizes)
		if err != nil {
			return err
		}
		if jsonOut {
			return printPayloadScaleJSON(rows)
		}
		if csv {
			return printPayloadScaleCSV(rows)
		}
		return printPayloadScale(rows)
	})
	run("cachescale", func() error {
		rows, err := harness.CacheScale(opts, harness.DefaultCacheSkews(), harness.DefaultCacheEntries())
		if err != nil {
			return err
		}
		if jsonOut {
			return printCacheScaleJSON(rows)
		}
		if csv {
			return printCacheScaleCSV(rows)
		}
		return printCacheScale(rows)
	})
	run("anatomy", func() error {
		rep, err := harness.RunAnatomy(opts)
		if err != nil {
			return err
		}
		if jsonOut {
			return printAnatomyJSON(rep)
		}
		if csv {
			return printAnatomyCSV(rep)
		}
		return printAnatomy(rep)
	})
	run("chaos", func() error {
		rows, err := harness.RunChaos(opts, harness.DefaultChaosRates())
		if err != nil {
			return err
		}
		if jsonOut {
			return printChaosJSON(rows)
		}
		if csv {
			return printChaosCSV(rows)
		}
		return printChaos(rows)
	})
	run("connscale", func() error {
		rows, err := harness.RunConnScale(opts, harness.DefaultConnScaleCounts())
		if err != nil {
			return err
		}
		overload, err := harness.RunOverload(opts)
		if err != nil {
			return err
		}
		if jsonOut {
			return printConnScaleJSON(rows, overload)
		}
		if csv {
			return printConnScaleCSV(rows, overload)
		}
		return printConnScale(rows, overload)
	})
	run("tailscale", func() error {
		rep, err := harness.RunTailscale(opts)
		if err != nil {
			return err
		}
		if jsonOut {
			return printTailscaleJSON(rep)
		}
		if csv {
			return printTailscaleCSV(rep)
		}
		return printTailscale(rep)
	})
	run("deserspeed", func() error {
		rows, err := harness.DeserSpeed(opts, harness.DefaultDeserSpeedIters)
		if err != nil {
			return err
		}
		if jsonOut {
			return printDeserSpeedJSON(rows)
		}
		if csv {
			return printDeserSpeedCSV(rows)
		}
		return printDeserSpeed(rows)
	})
	run("blocksweep", func() error { return printBlockSweep(opts) })
	run("busypoll", func() error { return printPollModes(opts) })
	run("allocator", func() error { return printAllocatorAblation() })
	run("latency", func() error { return printLatency(opts) })
	run("llc", func() error { return printLLC(fig8) })
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// printFig7CSV emits the Fig. 7 sweep as CSV for plotting pipelines.
func printFig7CSV(opts harness.Options, wallIters int) error {
	rows, err := harness.Fig7(opts, harness.DefaultFig7Counts(), wallIters)
	if err != nil {
		return err
	}
	fmt.Println("series,elements,wire_bytes,cpu_ns,dpu_ns,ratio,wall_ns")
	for _, r := range rows {
		fmt.Printf("%s,%d,%d,%.2f,%.2f,%.3f,%.1f\n",
			r.Kind, r.Count, r.WireBytes, r.CPUNS, r.DPUNS, r.Ratio, r.WallNS)
	}
	return nil
}

// printFig8CSV emits all three Fig. 8 panels as one CSV.
func printFig8CSV(rows []harness.Fig8Row) error {
	fmt.Println("scenario,mode,rps,pcie_gbps,host_cores,dpu_cores,bottleneck,wire_bytes_per_req,pcie_bytes_per_req,min_credits,wall_rps")
	for _, r := range rows {
		fmt.Printf("%s,%s,%.0f,%.2f,%.3f,%.3f,%s,%.1f,%.1f,%d,%.0f\n",
			r.Scenario, r.Mode, r.Result.RPS, r.Result.BandwidthGbps,
			r.Result.HostCores, r.Result.DPUCores, r.Result.Bottleneck,
			r.WireBytesPerReq, r.PCIeBytesPerReq, r.MinCredits, r.WallRPS)
	}
	return nil
}

// printFig8JSON emits the Fig. 8 rows as a JSON array for downstream
// tooling (one object per bar, modeled Result plus wall-clock fields).
func printFig8JSON(rows []harness.Fig8Row) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// printFig7JSON emits the Fig. 7 sweep as a JSON array (one object per
// point: modeled CPU/DPU times plus the wall-clock measurement).
func printFig7JSON(opts harness.Options, wallIters int) error {
	rows, err := harness.Fig7(opts, harness.DefaultFig7Counts(), wallIters)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
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

func printPayloadScale(rows []harness.PayloadScaleRow) error {
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
	return nil
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

func printPayloadScaleCSV(rows []harness.PayloadScaleRow) error {
	fmt.Println("payload_bytes,sg_min,requests,rps,pcie_gbps,host_cores,dpu_cores,bottleneck,copied_bytes_per_req,ref_bytes_per_req,sg_msgs_per_req,deser_goodput_mbps,wall_rps")
	for _, r := range rows {
		fmt.Printf("%d,%d,%d,%.0f,%.2f,%.3f,%.3f,%s,%.1f,%.1f,%.3f,%.1f,%.0f\n",
			r.PayloadBytes, r.SGPayloadMin, r.Requests,
			r.Result.RPS, r.Result.BandwidthGbps, r.Result.HostCores,
			r.Result.DPUCores, r.Result.Bottleneck, r.CopiedBytesPerReq,
			r.RefBytesPerReq, r.SGMsgsPerReq, r.DeserGoodputMBps, r.WallRPS)
	}
	return nil
}

func printPayloadScaleJSON(rows []harness.PayloadScaleRow) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// doublingSweep builds the sweep 1, 2, 4, ... capped at max.
func doublingSweep(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for w := 1; w < max; w *= 2 {
		out = append(out, w)
	}
	return append(out, max)
}

func printRespScale(rows []harness.RespScaleRow) error {
	fmt.Println("== Response-direction scaling (host duplex pipeline, Echo workload) ==")
	fmt.Println("   (host handler/build workers = width, one DPU poller per connection")
	fmt.Println("    serializes; modeled host core spread capped at conns x width)")
	w := tw()
	fmt.Fprintln(w, "conns\tworkers\tRPS\tbottleneck\thost cores\tDPU cores\tresp B/req\twall req/s (this machine)")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%.3g\t%s\t%.2f\t%.2f\t%.0f\t%.3g\n",
			r.Connections, r.Workers, r.Result.RPS, r.Result.Bottleneck,
			r.Result.HostCores, r.Result.DPUCores, r.RespBytesPerReq, r.WallRPS)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func printRespScaleCSV(rows []harness.RespScaleRow) error {
	fmt.Println("connections,workers,rps,pcie_gbps,host_cores,dpu_cores,bottleneck,resp_bytes_per_req,wall_rps")
	for _, r := range rows {
		fmt.Printf("%d,%d,%.0f,%.2f,%.3f,%.3f,%s,%.1f,%.0f\n",
			r.Connections, r.Workers, r.Result.RPS, r.Result.BandwidthGbps,
			r.Result.HostCores, r.Result.DPUCores, r.Result.Bottleneck,
			r.RespBytesPerReq, r.WallRPS)
	}
	return nil
}

func printBatchScale(rows []harness.BatchScaleRow) error {
	fmt.Println("== Commit-coalescing sweep (goodput vs batch size x message size) ==")
	fmt.Println("   (one doorbell per sealed block; up to CommitBatch messages share it")
	fmt.Println("    unless the block fills first, so Small amortizes the doorbell while")
	fmt.Println("    Chars seals full regardless; flush columns say why blocks sealed)")
	w := tw()
	fmt.Fprintln(w, "scenario\tbatch\tRPS\tmsgs/block\tdoorbells/req\tfull\tbatch\ttimer\texplicit\twall req/s (this machine)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.3g\t%.1f\t%.2f\t%d\t%d\t%d\t%d\t%.3g\n",
			r.Scenario, r.CommitBatch, r.Result.RPS, r.MsgsPerBlock,
			r.DoorbellsPerReq, r.FlushFull, r.FlushBatch, r.FlushTimer,
			r.FlushExplicit, r.WallRPS)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func printBatchScaleCSV(rows []harness.BatchScaleRow) error {
	fmt.Println("scenario,commit_batch,rps,pcie_gbps,host_cores,dpu_cores,bottleneck,msgs_per_block,doorbells_per_req,flush_full,flush_batch,flush_timer,flush_explicit,wall_rps")
	for _, r := range rows {
		fmt.Printf("%s,%d,%.0f,%.2f,%.3f,%.3f,%s,%.2f,%.3f,%d,%d,%d,%d,%.0f\n",
			r.Scenario, r.CommitBatch, r.Result.RPS, r.Result.BandwidthGbps,
			r.Result.HostCores, r.Result.DPUCores, r.Result.Bottleneck,
			r.MsgsPerBlock, r.DoorbellsPerReq, r.FlushFull, r.FlushBatch,
			r.FlushTimer, r.FlushExplicit, r.WallRPS)
	}
	return nil
}

func printBatchScaleJSON(rows []harness.BatchScaleRow) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

func printRespScaleJSON(rows []harness.RespScaleRow) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

func printCacheScale(rows []harness.CacheScaleRow) error {
	fmt.Println("== Response-cache sweep (zipf skew x capacity, Ints workload) ==")
	fmt.Println("   (steady-state window after warmup; entries=0 rows are the uncached")
	fmt.Println("    reference per skew — hits skip deserialization AND the host, so")
	fmt.Println("    host ns/req collapses toward (1 - hit rate) of the reference)")
	w := tw()
	fmt.Fprintln(w, "skew\tentries\thit rate\tresident\tRPS\thost ns/req\tDPU ns/req\thost reduction\twall req/s (this machine)")
	for _, r := range rows {
		fmt.Fprintf(w, "%.1f\t%d\t%.3f\t%d\t%.3g\t%.0f\t%.0f\t%.2fx\t%.3g\n",
			r.Skew, r.CacheEntries, r.HitRate, r.ResidentEntries,
			r.Result.RPS, r.HostNSPerReq, r.DPUNSPerReq, r.HostReduction, r.WallRPS)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func printCacheScaleCSV(rows []harness.CacheScaleRow) error {
	fmt.Println("scenario,skew,keys,cache_entries,hit_rate,cache_hits,cache_misses,resident_entries,resident_bytes,rps,pcie_gbps,host_cores,dpu_cores,bottleneck,host_ns_per_req,dpu_ns_per_req,host_reduction,wall_rps")
	for _, r := range rows {
		fmt.Printf("%s,%.2f,%d,%d,%.4f,%d,%d,%d,%d,%.0f,%.2f,%.3f,%.3f,%s,%.1f,%.1f,%.3f,%.0f\n",
			r.Scenario, r.Skew, r.Keys, r.CacheEntries, r.HitRate,
			r.CacheHits, r.CacheMisses, r.ResidentEntries, r.ResidentBytes,
			r.Result.RPS, r.Result.BandwidthGbps, r.Result.HostCores,
			r.Result.DPUCores, r.Result.Bottleneck,
			r.HostNSPerReq, r.DPUNSPerReq, r.HostReduction, r.WallRPS)
	}
	return nil
}

func printCacheScaleJSON(rows []harness.CacheScaleRow) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

func printAnatomy(rep *harness.AnatomyReport) error {
	fmt.Println("== Latency anatomy (Echo workload, every request traced) ==")
	fmt.Println("   (stage rows partition each request's end-to-end window exactly:")
	fmt.Println("    wait:X is the idle time directly before stage X, so the stage")
	fmt.Println("    means sum to the e2e mean identically)")
	for _, m := range rep.Modes {
		fmt.Printf("-- %s datapath (host workers=%d, traced %d/%d, wall %.3g req/s) --\n",
			m.Mode, m.Workers, m.Traced, m.Requests, m.WallRPS)
		w := tw()
		fmt.Fprintln(w, "stage\tcount\tp50 us\tp90 us\tp99 us\tmean us\tshare")
		for _, s := range m.Stages {
			fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.2f\t%.1f%%\n",
				s.Stage, s.Count, s.P50US, s.P90US, s.P99US, s.MeanUS, 100*s.Share)
		}
		fmt.Fprintf(w, "e2e\t%d\t%.1f\t%.1f\t%.1f\t%.2f\t%.0f%%\n",
			m.E2E.Count, m.E2E.P50US, m.E2E.P90US, m.E2E.P99US, m.E2E.MeanUS, 100*m.E2E.Share)
		w.Flush()
		fmt.Printf("   stage-sum mean %.2f us vs e2e mean %.2f us\n",
			m.StageSumMeanUS, m.E2E.MeanUS)
		fmt.Printf("   doorbells/req %.2f (sealed: full %d, batch %d, timer %d, explicit %d; commit-batch %d)\n",
			m.DoorbellsPerReq, m.FlushFull, m.FlushBatch, m.FlushTimer,
			m.FlushExplicit, m.CommitBatch)
		fmt.Printf("   payload bytes/req: copied %.0f, referenced %.0f (sg-min %d)\n\n",
			m.CopiedBytesPerReq, m.RefBytesPerReq, m.SGPayloadMin)
	}
	return nil
}

func printAnatomyCSV(rep *harness.AnatomyReport) error {
	fmt.Println("mode,workers,stage,count,p50_us,p90_us,p99_us,mean_us,share")
	row := func(mode string, workers int, s harness.AnatomyStage) {
		fmt.Printf("%s,%d,%s,%d,%.2f,%.2f,%.2f,%.3f,%.4f\n",
			mode, workers, s.Stage, s.Count, s.P50US, s.P90US, s.P99US, s.MeanUS, s.Share)
	}
	for _, m := range rep.Modes {
		for _, s := range m.Stages {
			row(m.Mode, m.Workers, s)
		}
		e2e := m.E2E
		e2e.Stage = "e2e"
		row(m.Mode, m.Workers, e2e)
	}
	return nil
}

func printAnatomyJSON(rep *harness.AnatomyReport) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func printTable1(opts harness.Options) error {
	fmt.Println("== Table I: environment and configuration parameters ==")
	w := tw()
	fmt.Fprintln(w, "Parameter\tClient (DPU)\tServer (host)")
	for _, r := range harness.TableI(opts) {
		fmt.Fprintf(w, "%s\t%s\t%s\n", r.Parameter, r.Client, r.Server)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func printFig7(opts harness.Options, wallIters int) error {
	fmt.Println("== Fig. 7: time to deserialize a single message vs element count ==")
	fmt.Println("   (modeled single-core times; paper anchors: int tail 2.75 ns/elem,")
	fmt.Println("    char tail 42.5 ns/KiB, DPU/CPU ratios 1.89x int / 2.51x char)")
	rows, err := harness.Fig7(opts, harness.DefaultFig7Counts(), wallIters)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "series\telements\twire B\tCPU ns\tDPU ns\tDPU/CPU\twall ns (this machine)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.1f\t%.1f\t%.2fx\t%.1f\n",
			r.Kind, r.Count, r.WireBytes, r.CPUNS, r.DPUNS, r.Ratio, r.WallNS)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func printFig8a(rows []harness.Fig8Row) error {
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
	return nil
}

func printFig8b(rows []harness.Fig8Row) error {
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
	return nil
}

func printFig8c(opts harness.Options, rows []harness.Fig8Row) error {
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
	return nil
}

func printChaos(rows []harness.ChaosRow) error {
	fmt.Println("== Chaos sweep (fault injection + failure recovery; beyond the paper) ==")
	fmt.Println("   (Echo workload over the full offloaded stack; every call resolves")
	fmt.Println("    OK after transparent/client retries or with a typed status; each")
	fmt.Println("    timeout or connection break dumps the flight recorder's black box)")
	w := tw()
	fmt.Fprintln(w, "fault rate\trequests\tok\ttyped fail\tretries\tin-place retries\ttimed out\tconns lost\tflight dumps\tgoodput req/s\tp50 us\tp99 us")
	for _, r := range rows {
		fmt.Fprintf(w, "%.0f%%\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.3g\t%.0f\t%.0f\n",
			100*r.FaultRate, r.Requests, r.Succeeded, r.Failed, r.Retries,
			r.SendFaultRetries, r.TimedOut, r.ConnsBroken, r.FlightDumps,
			r.GoodputRPS, r.P50US, r.P99US)
	}
	w.Flush()
	for _, r := range rows {
		if r.DumpSample == "" {
			continue
		}
		fmt.Printf("   black-box sample at %.0f%% faults (first of %d dumps):\n",
			100*r.FaultRate, r.FlightDumps)
		for _, line := range strings.Split(strings.TrimRight(r.DumpSample, "\n"), "\n") {
			fmt.Println("   " + line)
		}
		break
	}
	fmt.Println()
	return nil
}

func printChaosCSV(rows []harness.ChaosRow) error {
	fmt.Println("fault_rate,plan,requests,succeeded,failed,retries,send_fault_retries,timed_out,late_dropped,conns_broken,flight_dumps,goodput_rps,p50_us,p99_us,wall_seconds")
	for _, r := range rows {
		fmt.Printf("%.4f,%q,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.0f,%.1f,%.1f,%.3f\n",
			r.FaultRate, r.Plan, r.Requests, r.Succeeded, r.Failed, r.Retries,
			r.SendFaultRetries, r.TimedOut, r.LateDropped, r.ConnsBroken,
			r.FlightDumps, r.GoodputRPS, r.P50US, r.P99US, r.WallSeconds)
	}
	return nil
}

func printChaosJSON(rows []harness.ChaosRow) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

func printConnScale(rows []harness.ConnScaleRow, overload harness.ConnScaleRow) error {
	fmt.Println("== Connection scale-out (reconnect + churn + admission control) ==")
	fmt.Println("   (Echo workload multiplexed over shared poller shards; the churn")
	fmt.Println("    legs kill live connections mid-load — every kill must be absorbed")
	fmt.Println("    by a transparent reconnect, every call resolves exactly once)")
	w := tw()
	fmt.Fprintln(w, "conns\tshards\tchurn\trequests\tok\ttyped fail\tretries\tkills\treconnects\tdead conns\tgoodput req/s\tp50 us\tp99 us")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.3g\t%.0f\t%.0f\n",
			r.Conns, r.Shards, r.Churn, r.Requests, r.Succeeded, r.Failed,
			r.Retries, r.Kills, r.Reconnects, r.DeadConns,
			r.GoodputRPS, r.P50US, r.P99US)
	}
	w.Flush()
	fmt.Printf("   overload (admit<=%d, no client retries): %d ok, %d shed typed UNAVAILABLE (DPU %d / host %d) in %.3fs\n",
		overload.AdmitMaxInflight, overload.Succeeded, overload.Failed,
		overload.DPUSheds, overload.HostSheds, overload.WallSeconds)
	fmt.Println()
	return nil
}

func printConnScaleCSV(rows []harness.ConnScaleRow, overload harness.ConnScaleRow) error {
	fmt.Println("conns,shards,churn,requests,succeeded,failed,retries,kills,reconnects,redial_fails,dpu_sheds,host_sheds,admit_max_inflight,dead_conns,goodput_rps,p50_us,p99_us,wall_seconds")
	all := append(append([]harness.ConnScaleRow(nil), rows...), overload)
	for _, r := range all {
		fmt.Printf("%d,%d,%v,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.0f,%.1f,%.1f,%.3f\n",
			r.Conns, r.Shards, r.Churn, r.Requests, r.Succeeded, r.Failed,
			r.Retries, r.Kills, r.Reconnects, r.RedialFails,
			r.DPUSheds, r.HostSheds, r.AdmitMaxInflight, r.DeadConns,
			r.GoodputRPS, r.P50US, r.P99US, r.WallSeconds)
	}
	return nil
}

func printConnScaleJSON(rows []harness.ConnScaleRow, overload harness.ConnScaleRow) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Sweep    []harness.ConnScaleRow
		Overload harness.ConnScaleRow
	}{rows, overload})
}

func printTailscale(rep *harness.TailscaleReport) error {
	fmt.Println("== Tail-latency exemplars (windowed histogram -> span anatomy) ==")
	fmt.Println("   (the trailing window's slowest requests, worst first; each links")
	fmt.Println("    through its histogram exemplar's trace ID to the stage-by-stage")
	fmt.Println("    breakdown of that exact request — where anatomy averages over")
	fmt.Println("    every request, tailscale explains the p99 outliers individually)")
	fmt.Printf("window %v: %d req, %.3g req/s, p50 %.0f us  p90 %.0f us  p99 %.0f us  (wall %.2fs, %d/%d exemplars resolved)\n",
		rep.Window, rep.WindowCount, rep.RPS, rep.P50US, rep.P90US, rep.P99US,
		rep.WallSeconds, rep.ResolvedExemplars, len(rep.Exemplars))
	for i, ex := range rep.Exemplars {
		bucket := "+Inf"
		if ex.BucketUS > 0 {
			bucket = fmt.Sprintf("%d us", ex.BucketUS)
		}
		fmt.Printf("-- #%d trace=%d latency=%d us (bucket <= %s) method=%s err=%v --\n",
			i+1, ex.TraceID, ex.LatencyUS, bucket, ex.Method, ex.Err)
		if !ex.Resolved {
			fmt.Println("   (trace no longer retained in the rings)")
			continue
		}
		w := tw()
		fmt.Fprintln(w, "  stage\tus")
		for _, s := range ex.Stages {
			fmt.Fprintf(w, "  %s\t%.1f\n", s.Stage, s.MeanUS)
		}
		w.Flush()
	}
	fmt.Println()
	return nil
}

func printTailscaleCSV(rep *harness.TailscaleReport) error {
	fmt.Println("exemplar,trace_id,latency_us,bucket_us,method,err,resolved,stage,stage_us")
	for i, ex := range rep.Exemplars {
		if len(ex.Stages) == 0 {
			fmt.Printf("%d,%d,%d,%d,%s,%t,%t,,\n",
				i, ex.TraceID, ex.LatencyUS, ex.BucketUS, ex.Method, ex.Err, ex.Resolved)
			continue
		}
		for _, s := range ex.Stages {
			fmt.Printf("%d,%d,%d,%d,%s,%t,%t,%s,%.2f\n",
				i, ex.TraceID, ex.LatencyUS, ex.BucketUS, ex.Method, ex.Err,
				ex.Resolved, s.Stage, s.MeanUS)
		}
	}
	return nil
}

func printTailscaleJSON(rep *harness.TailscaleReport) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func printDeserSpeed(rows []harness.DeserSpeedRow) error {
	fmt.Println("== Decode-plan speedup (interpretive measure+decode vs planned scan+fill) ==")
	fmt.Println("   (wall times on this machine; modeled columns price the planned fill's")
	fmt.Println("    note replay at copy cost instead of re-decoding)")
	w := tw()
	fmt.Fprintln(w, "workload\twire B\tinterp ns\tplanned ns\tspeedup\thost model ns (i->p)\tDPU model ns (i->p)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.0f\t%.2fx\t%.0f -> %.0f\t%.0f -> %.0f\n",
			r.Workload, r.WireBytes, r.InterpNS, r.PlannedNS, r.Speedup,
			r.HostInterpNS, r.HostPlannedNS, r.DPUInterpNS, r.DPUPlannedNS)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func printDeserSpeedCSV(rows []harness.DeserSpeedRow) error {
	fmt.Println("workload,wire_bytes,interp_ns,planned_ns,speedup,host_interp_ns,host_planned_ns,dpu_interp_ns,dpu_planned_ns")
	for _, r := range rows {
		fmt.Printf("%s,%d,%.1f,%.1f,%.3f,%.1f,%.1f,%.1f,%.1f\n",
			r.Workload, r.WireBytes, r.InterpNS, r.PlannedNS, r.Speedup,
			r.HostInterpNS, r.HostPlannedNS, r.DPUInterpNS, r.DPUPlannedNS)
	}
	return nil
}

func printDeserSpeedJSON(rows []harness.DeserSpeedRow) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

func printBlockSweep(opts harness.Options) error {
	fmt.Println("== Block-size sweep (Sec. VI-A: optimum around 8 KiB) ==")
	rows, err := harness.BlockSizeSweep(opts, harness.DefaultBlockSizes())
	if err != nil {
		return err
	}
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
	return nil
}

func printPollModes(opts harness.Options) error {
	fmt.Println("== Poll-mode comparison (Sec. III-C: busy poll ~10% faster, 100% CPU) ==")
	rows, err := harness.PollModes(opts)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "mode\tRPS\thost CPU%\tDPU CPU%")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3g\t%.0f%%\t%.0f%%\n", r.Mode, r.RPS, r.HostCPUPercent, r.DPUCPUPercent)
	}
	w.Flush()
	if len(rows) == 2 && rows[1].RPS > 0 {
		fmt.Printf("   busy-poll speedup: %.1f%%\n\n", 100*(rows[0].RPS/rows[1].RPS-1))
	}
	return nil
}

// printAllocatorAblation regenerates the Sec. IV-A design comparison.
func printAllocatorAblation() error {
	fmt.Println("== Allocator ablation (Sec. IV-A: dynamic allocation vs ring buffer) ==")
	fmt.Println("   (out-of-order completion trace: 4 KiB blocks, 8 in flight, 64 KiB space)")
	cfg := arena.DefaultTraceConfig(20000)
	dyn, ring, err := arena.CompareOutOfOrder(cfg)
	if err != nil {
		return err
	}
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
	return nil
}

// printLatency reports wall-clock datapath latency (beyond the paper; the
// library-level instrumentation of Sec. VI applied to latency).
func printLatency(opts harness.Options) error {
	fmt.Println("== Datapath latency (wall-clock, this machine; beyond the paper) ==")
	o := opts
	if o.Requests > 8000 {
		o.Requests = 8000
	}
	w := tw()
	fmt.Fprintln(w, "scenario\trequests\tp50 us\tp90 us\tp99 us\tmean us\twall req/s")
	for _, s := range workload.Scenarios() {
		r, err := harness.MeasureLatency(s, o)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.0f\t%.0f\t%.1f\t%.3g\n",
			r.Scenario, r.Requests, r.P50US, r.P90US, r.P99US, r.MeanUS, r.WallRPS)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func printLLC(rows []harness.Fig8Row) error {
	fmt.Println("== Sec. VI-C5: last-level cache / allocator behaviour ==")
	fmt.Println("   The datapath performs its work exclusively in preallocated, pinned")
	fmt.Println("   buffers managed by the offset-based arena allocator; the system")
	fmt.Println("   allocator is never used per request. See TestDatapathZeroAlloc and")
	fmt.Println("   BenchmarkDatapathAllocs (allocs/op = 0), the Go analogue of the")
	fmt.Println("   paper's ~zero LLC-miss measurement.")
	fmt.Println()
	return nil
}
