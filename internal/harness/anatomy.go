package harness

import (
	"fmt"
	"time"

	"dpurpc/internal/offload"
	"dpurpc/internal/trace"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// The latency-anatomy experiment answers "where does a request's time go?"
// by tracing every RPC of an Echo run end to end and partitioning each
// trace's window into its datapath stages plus named wait gaps (see
// trace.Breakdown — the partition is exact, so the stage rows sum to the
// end-to-end latency identically). It runs the same workload twice: once on
// the serial response path and once with the host's duplex pipeline, so the
// anatomy shows what the pipeline actually moves — which stage shrinks,
// which wait appears.

// AnatomyStage is one row of the per-stage latency table.
type AnatomyStage struct {
	// Stage is a datapath stage name ("dpu.build", "host.handler", ...) or
	// a wait gap ("wait:dpu.commit" = idle time directly before that stage).
	Stage string
	// Count is the number of traces that contained the stage.
	Count int
	// Per-trace duration percentiles and mean, microseconds.
	P50US  float64
	P90US  float64
	P99US  float64
	MeanUS float64
	// Share is this stage's fraction of the summed end-to-end time (0..1).
	Share float64
}

// AnatomyMode is the anatomy of one datapath mode.
type AnatomyMode struct {
	// Mode is "serial" or "pipelined".
	Mode string
	// Workers is the host duplex pipeline width (0 for the serial response
	// path).
	Workers int
	// Requests is the number of RPCs driven; Traced is how many produced a
	// complete trace (they differ only if the tracer shed load).
	Requests int
	Traced   int
	// Stages are the per-stage rows in datapath order, waits interleaved.
	Stages []AnatomyStage
	// E2E is the end-to-end row (admission to delivery).
	E2E AnatomyStage
	// StageSumMeanUS is the mean over traces of the summed stage durations.
	// By construction it equals E2E.MeanUS — reported so the consistency is
	// visible (and testable) rather than asserted.
	StageSumMeanUS float64
	// WallSeconds/WallRPS are the wall-clock cost of driving the run with
	// tracing enabled.
	WallSeconds float64
	WallRPS     float64
	// TraceStats exposes the tracer's shed counters for the run.
	TraceStats trace.Stats
	// Commit-coalescing view of the same run: CommitBatch echoes the
	// coalescing target (0/1 = flush every pass), DoorbellsPerReq is the
	// message-carrying blocks sealed per request (both directions, all
	// connections), and the Flush* counters say why each sealed — the
	// per-request share of the fixed doorbell cost, next to the stage
	// latencies it buys down.
	CommitBatch     int
	DoorbellsPerReq float64
	FlushFull       uint64
	FlushBatch      uint64
	FlushTimer      uint64
	FlushExplicit   uint64
	// Scatter-gather view of the same run: SGPayloadMin echoes the payload
	// threshold (0 = every byte copies), and the two per-request columns
	// split each request's payload bytes between the inline path (copied
	// through the object arena) and the descriptor path (placed once into
	// SG segments, referenced by offset). Together they show how much of
	// the deserialization stage's time is raw byte movement that SG framing
	// removes.
	SGPayloadMin      int
	CopiedBytesPerReq float64
	RefBytesPerReq    float64
}

// AnatomyReport is the full experiment output: the same workload's anatomy
// on the serial and pipelined host response paths.
type AnatomyReport struct {
	Modes []AnatomyMode
}

// RunAnatomy runs the latency-anatomy experiment. The pipelined mode uses
// opts.ServerCfg.HostWorkers (default 4 when unset); the serial mode
// ignores it. Each mode gets its own tracer sized to hold every request, so
// the anatomy covers the complete run, not a sample.
func RunAnatomy(opts Options) (*AnatomyReport, error) {
	hostWorkers := opts.ServerCfg.HostWorkers
	if hostWorkers <= 1 {
		hostWorkers = 4
	}
	serial, err := runAnatomyMode(opts, "serial", 0)
	if err != nil {
		return nil, fmt.Errorf("anatomy serial: %w", err)
	}
	piped, err := runAnatomyMode(opts, "pipelined", hostWorkers)
	if err != nil {
		return nil, fmt.Errorf("anatomy pipelined: %w", err)
	}
	return &AnatomyReport{Modes: []AnatomyMode{serial, piped}}, nil
}

func runAnatomyMode(opts Options, mode string, hostWorkers int) (AnatomyMode, error) {
	env := workload.NewEnv()
	dcfg := opts.deployConfig()
	conns := dcfg.Connections
	// 2x headroom over the request count: ring capacity is split across
	// shards, so an exactly-sized ring could shed a trace on an uneven
	// shard split, and the anatomy must cover the complete run.
	tr := trace.New(trace.Config{
		RingSize:  2 * opts.Requests,
		MaxActive: opts.Requests + 1,
	})
	tr.Enable()
	dcfg.ServerCfg.HostWorkers = hostWorkers
	dcfg.OffloadResponseSerialization = true
	dcfg.Tracer = tr
	d, err := offload.NewDeploymentWith(env.Table, emptyImpls(env), dcfg)
	if err != nil {
		return AnatomyMode{}, err
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
				return AnatomyMode{}, err
			}
			submitted++
		}
		for _, dpuSrv := range d.DPUs {
			if _, err := dpuSrv.Progress(); err != nil {
				return AnatomyMode{}, err
			}
		}
		if _, err := d.Poller.Progress(); err != nil {
			return AnatomyMode{}, err
		}
	}
	wall := time.Since(start)
	if failed > 0 {
		return AnatomyMode{}, fmt.Errorf("%d failed calls", failed)
	}

	traces := tr.Drain()
	stats := tr.Stats()
	rows := trace.Breakdown(traces)
	m := AnatomyMode{
		Mode:        mode,
		Workers:     hostWorkers,
		Requests:    opts.Requests,
		Traced:      len(traces),
		WallSeconds: wall.Seconds(),
		WallRPS:     safeDiv(float64(opts.Requests), wall.Seconds()),
		TraceStats:  stats,
		CommitBatch: opts.ClientCfg.CommitBatch,
	}
	m.SGPayloadMin = opts.SGPayloadMin
	var copied, reffed uint64
	for _, dpuSrv := range d.DPUs {
		c := dpuSrv.Client().Counters
		m.FlushFull += c.FlushFull
		m.FlushBatch += c.FlushBatch
		m.FlushTimer += c.FlushTimer
		m.FlushExplicit += c.FlushExplicit
		st := dpuSrv.Stats()
		copied += st.Deser.CopyBytes
		reffed += st.Deser.RefBytes
	}
	m.CopiedBytesPerReq = safeDiv(float64(copied), float64(opts.Requests))
	m.RefBytesPerReq = safeDiv(float64(reffed), float64(opts.Requests))
	for _, conn := range d.Poller.Conns() {
		c := conn.Counters
		m.FlushFull += c.FlushFull
		m.FlushBatch += c.FlushBatch
		m.FlushTimer += c.FlushTimer
		m.FlushExplicit += c.FlushExplicit
	}
	m.DoorbellsPerReq = safeDiv(
		float64(m.FlushFull+m.FlushBatch+m.FlushTimer+m.FlushExplicit),
		float64(opts.Requests))
	var e2eTotal, stageTotal float64
	for _, r := range rows {
		if r.Stage == "e2e" {
			e2eTotal = r.TotalUS
		} else {
			stageTotal += r.TotalUS
		}
	}
	for _, r := range rows {
		row := AnatomyStage{
			Stage:  r.Stage,
			Count:  r.Count,
			P50US:  r.P50US,
			P90US:  r.P90US,
			P99US:  r.P99US,
			MeanUS: r.MeanUS,
			Share:  safeDiv(r.TotalUS, e2eTotal),
		}
		if r.Stage == "e2e" {
			m.E2E = row
			continue
		}
		m.Stages = append(m.Stages, row)
	}
	m.StageSumMeanUS = safeDiv(stageTotal, float64(len(traces)))
	return m, nil
}
