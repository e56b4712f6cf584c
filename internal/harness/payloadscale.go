package harness

import (
	"fmt"
	"time"

	"dpurpc/internal/dpu"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/offload"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// PayloadScaleRow is one point of the scatter-gather payload sweep: the Echo
// workload at one payload size, with SG framing on or off. The interesting shape is the copied-bytes column collapsing to
// (near) zero when SG is on while the reference-bytes column takes over —
// and the deserializer-limited goodput multiplying accordingly, since a
// referenced payload byte costs PayloadRefNS instead of CopyByteNS.
type PayloadScaleRow struct {
	// PayloadBytes is the Echo string payload size.
	PayloadBytes int
	// SGPayloadMin is the SG threshold the row ran with (0 = inline path).
	SGPayloadMin int
	// Requests actually driven (scaled down at large payload sizes).
	Requests int
	// Result is the machine-model projection of the whole deployment.
	Result dpu.Result
	// CopiedBytesPerReq / RefBytesPerReq split each request's payload bytes
	// by how the deserializer moved them: copied through the object arena
	// versus placed once into SG segments and referenced by offset.
	CopiedBytesPerReq float64
	RefBytesPerReq    float64
	// SGMsgsPerReq is the fraction of requests that carried an SG table.
	SGMsgsPerReq float64
	// DeserGoodputMBps is the deserializer-limited goodput: payload bytes
	// per second through the modeled DPU deserialization time alone.
	DeserGoodputMBps float64
	// WallRPS is this machine's wall-clock rate (not a modeled number).
	WallRPS float64
}

// DefaultPayloadSizes is the payload sweep grid (1 KiB to 4 MiB).
func DefaultPayloadSizes() []int {
	return []int{1 << 10, 8 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
}

// PayloadScale sweeps Echo payload sizes across {SG off, SG on}.
// opts.SGPayloadMin sets the SG threshold of the "on" legs (default 1 KiB).
func PayloadScale(opts Options, sizes []int) ([]PayloadScaleRow, error) {
	if len(sizes) == 0 {
		sizes = DefaultPayloadSizes()
	}
	sgMin := opts.SGPayloadMin
	if sgMin <= 0 {
		sgMin = 1 << 10
	}
	var rows []PayloadScaleRow
	for _, size := range sizes {
		for _, min := range []int{0, sgMin} {
			row, err := runPayload(opts, size, min)
			if err != nil {
				return nil, fmt.Errorf("payloadscale size=%d sg=%d: %w", size, min, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runPayload drives one payloadscale point over the full offloaded
// deployment (EchoBlob method, GenBlob payloads of the given size — a bytes
// field, so neither leg pays UTF-8 validation and the copy-vs-reference
// difference is what the sweep isolates).
func runPayload(opts Options, size, sgMin int) (PayloadScaleRow, error) {
	env := workload.NewEnv()
	dcfg := opts.deployConfig()
	dcfg.SGPayloadMin = sgMin
	// The serial host response path: each point isolates the
	// request-payload copy.
	dcfg.ServerCfg.HostWorkers = 0
	conns := dcfg.Connections
	// Bound the total bytes driven per point, and the in-flight bytes.
	requests := opts.Requests
	if maxReqs := (256 << 20) / size; requests > maxReqs {
		requests = maxReqs
	}
	if requests < 64 {
		requests = 64
	}
	concurrency := opts.Concurrency
	if maxConc := (16 << 20) / size; concurrency > maxConc {
		concurrency = maxConc
	}
	if concurrency < 2 {
		concurrency = 2
	}
	// Oversized single-message blocks are carved from the send arenas;
	// both directions carry the payload (Echo), so each side must hold
	// every in-flight message plus generous headroom for blocks awaiting
	// acknowledgement.
	if minBuf := 4 * concurrency * size; dcfg.ClientCfg.SBufSize < minBuf {
		dcfg.ClientCfg.SBufSize = minBuf
	}
	if minBuf := 4 * concurrency * size; dcfg.ServerCfg.SBufSize < minBuf {
		dcfg.ServerCfg.SBufSize = minBuf
	}

	d, err := offload.NewDeploymentWith(env.Table, emptyImpls(env), dcfg)
	if err != nil {
		return PayloadScaleRow{}, err
	}
	defer d.Close()

	rng := mt19937.New(opts.Seed)
	distinct := opts.DistinctMessages
	if distinct <= 0 || distinct*size > (64<<20) {
		distinct = 4
	}
	payloads := make([][]byte, distinct)
	for i := range payloads {
		payloads[i] = env.GenBlob(rng, size).Marshal(nil)
	}
	method := xrpc.FullMethodName("benchpb.Bench", "EchoBlob")

	start := time.Now()
	submitted, completed, failed := 0, 0, 0
	for completed < requests {
		for submitted < requests && submitted-completed < concurrency {
			dpuSrv := d.DPUs[submitted%conns]
			err := dpuSrv.SubmitLocal(method, payloads[submitted%len(payloads)],
				func(status uint16, errFlag bool, resp []byte) {
					completed++
					if status != 0 || errFlag {
						failed++
					}
				})
			if err != nil {
				return PayloadScaleRow{}, err
			}
			submitted++
		}
		for _, dpuSrv := range d.DPUs {
			if _, err := dpuSrv.Progress(); err != nil {
				return PayloadScaleRow{}, err
			}
		}
		if _, err := d.Poller.Progress(); err != nil {
			return PayloadScaleRow{}, err
		}
	}
	wall := time.Since(start)
	if failed > 0 {
		return PayloadScaleRow{}, fmt.Errorf("%d failed calls", failed)
	}

	var st offload.DPUStats
	var sgMsgs uint64
	for _, dpuSrv := range d.DPUs {
		s := dpuSrv.Stats()
		st.Requests += s.Requests
		st.Responses += s.Responses
		st.MeasuredBytes += s.MeasuredBytes
		st.RespBytes += s.RespBytes
		st.SerializedBytes += s.SerializedBytes
		st.Deser.Add(s.Deser)
		sgMsgs += dpuSrv.Client().Counters.SGMessagesSent
	}
	o := opts
	o.Requests = requests
	usage, _ := offloadUsage(d, method, o)
	n := float64(st.Responses)
	deserNS := opts.Machine.DPU.DeserNS(st.Deser)
	row := PayloadScaleRow{
		PayloadBytes:      size,
		SGPayloadMin:      sgMin,
		Requests:          requests,
		Result:            opts.Machine.Analyze(usage),
		CopiedBytesPerReq: safeDiv(float64(st.Deser.CopyBytes), n),
		RefBytesPerReq:    safeDiv(float64(st.Deser.RefBytes), n),
		SGMsgsPerReq:      safeDiv(float64(sgMsgs), n),
		DeserGoodputMBps:  safeDiv(float64(size)*n, deserNS) * 1000,
		WallRPS:           safeDiv(float64(requests), wall.Seconds()),
	}
	return row, nil
}
