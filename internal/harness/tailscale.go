package harness

import (
	"fmt"
	"math"
	"time"

	"dpurpc/internal/metrics"
	"dpurpc/internal/offload"
	"dpurpc/internal/trace"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// The tailscale experiment demonstrates the windowed-telemetry pipeline end
// to end: an Echo run is driven with both the tracer and a sliding-window
// latency histogram attached, and at the end the trailing window's quantiles
// are reported together with the bucket exemplars — the literal worst recent
// requests — each resolved through its trace ID to a full stage-by-stage
// span anatomy. Where the anatomy experiment averages over every request,
// tailscale answers "which exact requests make up the current p99, and where
// did *their* time go?"

// TailExemplar is one windowed-histogram exemplar resolved against the
// tracer.
type TailExemplar struct {
	// TraceID tags the exemplar back to its trace (0 = untraced request).
	TraceID uint64
	// LatencyUS is the recorded windowed latency; BucketUS is the histogram
	// bucket bound it fell in (0 stands for the +Inf overflow bucket).
	LatencyUS int64
	BucketUS  int64
	// Resolved is true when the trace was still retained in the rings;
	// Method/Err and Stages are only meaningful then.
	Resolved bool
	Method   string
	Err      bool
	// Stages is the single-request breakdown: each datapath stage's duration
	// in microseconds, waits interleaved, "e2e" last. The stage rows sum to
	// the end-to-end row exactly (trace.Breakdown's partition).
	Stages []AnatomyStage
}

// TailscaleReport is the experiment output.
type TailscaleReport struct {
	Requests int
	// Window is the sliding window's span; WindowCount how many of the
	// run's requests were still inside it at sampling time.
	Window      time.Duration
	WindowCount uint64
	RPS         float64
	// Windowed latency quantiles (bucket upper bounds, microseconds). The
	// +Inf overflow bucket is flattened to the largest finite bound.
	P50US float64
	P90US float64
	P99US float64
	// Exemplars are the window's worst requests, worst first, resolved to
	// span anatomies.
	Exemplars []TailExemplar
	// ResolvedExemplars counts how many resolved to a retained trace.
	ResolvedExemplars int
	WallSeconds       float64
	TraceStats        trace.Stats
}

// RunTailscale drives the Echo workload on the pipelined offloaded stack
// with windowed telemetry enabled and reports the trailing window's tail.
func RunTailscale(opts Options) (*TailscaleReport, error) {
	env := workload.NewEnv()
	dcfg := opts.deployConfig()
	conns := dcfg.Connections
	hostWorkers := opts.ServerCfg.HostWorkers
	if hostWorkers <= 1 {
		hostWorkers = 4
	}
	// Ring capacity covers the whole run (2x: capacity splits across shards)
	// so every exemplar the window retains can resolve to its trace.
	tr := trace.New(trace.Config{
		RingSize:  2 * opts.Requests,
		MaxActive: opts.Requests + 1,
	})
	tr.Enable()
	win := opts.Window
	if win == nil {
		win = metrics.NewRPCWindow()
	}
	dcfg.ServerCfg.HostWorkers = hostWorkers
	dcfg.OffloadResponseSerialization = true
	dcfg.Tracer = tr
	dcfg.Window = win
	d, err := offload.NewDeploymentWith(env.Table, emptyImpls(env), dcfg)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	payloads := genPayloads(env, workload.ScenarioChars, opts)
	method := xrpc.FullMethodName("benchpb.Bench", env.Service.Methods[workload.MethodEcho].Name)

	start := time.Now()
	submitted, completed, failed := 0, 0, 0
	for completed < opts.Requests {
		for submitted < opts.Requests && submitted-completed < opts.Concurrency {
			dpuSrv := d.DPUs[submitted%conns]
			err := dpuSrv.SubmitLocal(method, payloads[submitted%len(payloads)],
				func(status uint16, errFlag bool, resp []byte) {
					completed++
					if status != 0 || errFlag {
						failed++
					}
				})
			if err != nil {
				return nil, err
			}
			submitted++
		}
		for _, dpuSrv := range d.DPUs {
			if _, err := dpuSrv.Progress(); err != nil {
				return nil, err
			}
		}
		if _, err := d.Poller.Progress(); err != nil {
			return nil, err
		}
	}
	wall := time.Since(start)
	if failed > 0 {
		return nil, fmt.Errorf("%d failed calls", failed)
	}

	// Sample the window BEFORE touching the tracer: entries resolve against
	// a snapshot of the rings, exactly like a live /tail scrape.
	snap := win.LatencyUS.Snapshot()
	if snap.Count == 0 {
		return nil, fmt.Errorf("no samples inside the %v window (run too slow?)", snap.Window)
	}
	max := opts.TailExemplars
	if max <= 0 {
		max = 8
	}
	entries := trace.TailEntries(tr, snap, max)
	rep := &TailscaleReport{
		Requests:    opts.Requests,
		Window:      snap.Window,
		WindowCount: snap.Count,
		RPS:         win.Requests.Rate(),
		P50US:       finiteQuantile(snap, 0.50),
		P90US:       finiteQuantile(snap, 0.90),
		P99US:       finiteQuantile(snap, 0.99),
		WallSeconds: wall.Seconds(),
		TraceStats:  tr.Stats(),
	}
	for _, e := range entries {
		ex := TailExemplar{
			TraceID:   e.ID,
			LatencyUS: e.ValueUS,
			Resolved:  e.Resolved,
			Method:    e.Method,
			Err:       e.Err,
		}
		if e.BoundUS != math.MaxInt64 {
			ex.BucketUS = e.BoundUS
		}
		for _, s := range e.Stages {
			ex.Stages = append(ex.Stages, AnatomyStage{
				Stage: s.Stage, Count: s.Count, MeanUS: s.MeanUS,
				P50US: s.P50US, P90US: s.P90US, P99US: s.P99US,
			})
		}
		if ex.Resolved {
			rep.ResolvedExemplars++
		}
		rep.Exemplars = append(rep.Exemplars, ex)
	}
	return rep, nil
}

// finiteQuantile flattens the +Inf overflow bucket to the largest finite
// bound so reports (and their JSON encoding) stay finite.
func finiteQuantile(snap metrics.WindowSnapshot, q float64) float64 {
	v := snap.Quantile(q)
	if len(snap.Buckets) >= 2 && v > float64(snap.Buckets[len(snap.Buckets)-2].Bound) {
		return float64(snap.Buckets[len(snap.Buckets)-2].Bound)
	}
	return v
}
