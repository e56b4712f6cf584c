package harness

import (
	"bytes"
	"fmt"
	"time"

	"dpurpc/internal/dpu"
	"dpurpc/internal/offload"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// RespScaleRow is one row of the response-direction scaling experiment: the
// host's duplex pipeline (handler and response-build workers) at a given
// width, with the DPU poller serializing every response, driven by the Echo
// workload whose responses carry the full request payload back.
type RespScaleRow struct {
	// Connections is the number of host<->DPU connections the row ran with
	// (each with its own Workers-wide host pipeline and one DPU poller).
	Connections int
	// Workers is the host pipeline width (HostWorkers).
	Workers int
	// Result is the machine-model projection with the host core spread
	// capped at Connections*Workers (the serial row uses the same cap so the
	// scaling is apples to apples).
	Result dpu.Result
	// RespBytesPerReq is the serialized response payload per request.
	RespBytesPerReq float64
	// WallSeconds/WallRPS report the measured wall-clock cost of driving the
	// run on this machine (not the paper's modeled numbers).
	WallSeconds float64
	WallRPS     float64
}

// ResponseScaling runs the Echo workload — request payload echoed back in
// the response, so both directions carry the same bytes — through the
// response-serialization offload at each host pipeline width. It reports
// modeled throughput (host core time capped at the worker count) alongside
// the wall-clock rate of the real datapath.
func ResponseScaling(opts Options, workers []int) ([]RespScaleRow, error) {
	conns := opts.Connections
	if conns == 0 {
		conns = 1
	}
	return ResponseScalingGrid(opts, []int{conns}, workers)
}

// ResponseScalingGrid is ResponseScaling over a connection-count axis too:
// every (connections, workers) pair gets its own deployment, so the sweep
// separates scaling by adding pollers (more connections) from scaling by
// widening each connection's host pipeline (more workers).
func ResponseScalingGrid(opts Options, conns, workers []int) ([]RespScaleRow, error) {
	rows := make([]RespScaleRow, 0, len(conns)*len(workers))
	for _, c := range conns {
		for _, w := range workers {
			o := opts
			o.Connections = c
			row, err := runRespScale(o, w)
			if err != nil {
				return nil, fmt.Errorf("respscale conns=%d workers=%d: %w", c, w, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runRespScale(opts Options, workers int) (RespScaleRow, error) {
	env := workload.NewEnv()
	dcfg := opts.deployConfig()
	dcfg.ServerCfg.HostWorkers = workers
	dcfg.OffloadResponseSerialization = true
	conns := dcfg.Connections
	d, err := offload.NewDeploymentWith(env.Table, emptyImpls(env), dcfg)
	if err != nil {
		return RespScaleRow{}, err
	}
	defer d.Close()
	payloads := genPayloads(env, workload.ScenarioChars, opts)
	method := xrpc.FullMethodName("benchpb.Bench", env.Service.Methods[workload.MethodEcho].Name)

	start := time.Now()
	submitted, completed, failed := 0, 0, 0
	var respBytes uint64
	for completed < opts.Requests {
		for submitted < opts.Requests && submitted-completed < opts.Concurrency {
			dpuSrv := d.DPUs[submitted%conns]
			want := payloads[submitted%len(payloads)]
			err := dpuSrv.SubmitLocal(method, want,
				func(status uint16, errFlag bool, resp []byte) {
					completed++
					if status != 0 || errFlag || !bytes.Equal(resp, want) {
						failed++
					}
					respBytes += uint64(len(resp))
				})
			if err != nil {
				return RespScaleRow{}, err
			}
			submitted++
		}
		for _, dpuSrv := range d.DPUs {
			if _, err := dpuSrv.Progress(); err != nil {
				return RespScaleRow{}, err
			}
		}
		if _, err := d.Poller.Progress(); err != nil {
			return RespScaleRow{}, err
		}
	}
	wall := time.Since(start)
	if failed > 0 {
		return RespScaleRow{}, fmt.Errorf("%d failed or corrupted echoes", failed)
	}

	usage, _ := offloadUsage(d, method, opts)
	// Cap the modeled host core spread at the pipeline width on every row —
	// including workers=1 — so the scaling curve isolates the pipeline and
	// not the serial path's idealized even spread.
	usage.HostWorkers = conns * workers
	return RespScaleRow{
		Connections:     conns,
		Workers:         workers,
		Result:          opts.Machine.Analyze(usage),
		RespBytesPerReq: safeDiv(float64(respBytes), float64(opts.Requests)),
		WallSeconds:     wall.Seconds(),
		WallRPS:         safeDiv(float64(opts.Requests), wall.Seconds()),
	}, nil
}
