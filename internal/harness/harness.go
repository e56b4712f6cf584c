// Package harness reproduces the paper's evaluation (Sec. VI): it drives
// the real datapath — the same deserializer, protocol, and buffers the
// library ships — under the three synthetic workloads, collects the
// instrumented operation counts, charges them to the calibrated machine
// model (internal/cpumodel, internal/dpu), and emits the rows of every
// table and figure.
//
// Experiment index (see DESIGN.md): Fig. 7 (RunFig7), Fig. 8a/8b/8c
// (RunFig8), Table I (TableI), the block-size sweep of Sec. VI-A
// (BlockSizeSweep), the busy-poll comparison of Sec. III-C (PollModes), and
// the allocator/LLC observation of Sec. VI-C5 (exercised in the tests and
// the root benchmarks).
package harness

import (
	"fmt"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/dpu"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/offload"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// Options configure a benchmark run: the offloaded deployment under test
// and the run's shape.
type Options struct {
	// DeployConfig is the deployment every offloaded run builds (see
	// deployConfig). Its Connections spread requests round-robin (the paper
	// runs one poller per connection and reports "an even workload
	// distribution between the cores"); ServerCfg.HostWorkers > 1 also caps
	// the modeled host core spread at Connections*HostWorkers busy cores;
	// Registry receives the Fig. 8 runs' rpcrdma_flush_total counters.
	offload.DeployConfig
	// Requests per scenario per mode.
	Requests int
	// BusyPoll selects the modeled polling mode, i.e. whether the cost
	// model charges a wake-up per block (Table I runs busy-poll on
	// dedicated cores; the poll() comparison is the Sec. III-C ablation).
	// The pollers themselves always busy-poll: the harness drives them.
	BusyPoll bool
	// Seed for the Mersenne Twister.
	Seed uint32
}

// DefaultOptions returns the Table I configuration.
func DefaultOptions() Options {
	return Options{
		DeployConfig: offload.DeployConfig{
			Connections: 1,
			ClientCfg:   rpcrdma.DefaultClientConfig(),
			ServerCfg:   rpcrdma.DefaultServerConfig(),
		},
		Requests: 20000,
		BusyPoll: true,
		Seed:     mt19937.DefaultSeed,
	}
}

// distinctMessages is how many pre-generated messages a run cycles.
const distinctMessages = 32

// machine is the modeled testbed (Table I) every run is charged to.
var machine = dpu.Default()

// deployConfig is the deployment an offloaded run builds from o: at least
// one connection, and both sides busy-polling, because the harness drives
// the pollers itself on one goroutine.
func (o Options) deployConfig() offload.DeployConfig {
	cfg := o.DeployConfig
	if cfg.Connections == 0 {
		cfg.Connections = 1
	}
	cfg.ClientCfg.BusyPoll, cfg.ServerCfg.BusyPoll = true, true
	return cfg
}

// Mode distinguishes the two Fig. 8 scenarios.
type Mode string

// The two datapath modes compared throughout Fig. 8.
const (
	ModeCPU Mode = "cpu-deser"   // baseline: host terminates xRPC and deserializes
	ModeDPU Mode = "dpu-offload" // offloaded: DPU terminates xRPC and deserializes
)

// Fig8Row is one bar of Fig. 8 (all three subfigures share rows).
type Fig8Row struct {
	Scenario workload.Scenario
	Mode     Mode
	Result   dpu.Result
	// MinCredits is the credit low-water mark (must stay positive,
	// Sec. VI-A: "the credits should also never reach zero").
	MinCredits uint64
	// WireBytesPerReq / PCIeBytesPerReq expose the serialized vs
	// transferred sizes behind Fig. 8b.
	WireBytesPerReq float64
	PCIeBytesPerReq float64
	// ReqMsgsPerBlock is the achieved request batching (offload mode).
	ReqMsgsPerBlock float64
	// HostWorkers echoes the host-side duplex width (offload mode; 0 means
	// the poller runs every response stage).
	HostWorkers int
	// WallSeconds/WallRPS report the measured wall-clock cost of driving
	// the run on this machine. They are not the paper's modeled numbers
	// (Result covers those) but let the pipeline's real multi-core speedup
	// be observed directly.
	WallSeconds float64
	WallRPS     float64
	// The Flush* counters break down why message-carrying blocks sealed
	// (offload mode), summed over both directions of every connection:
	// where the fixed doorbell cost went.
	FlushFull     uint64
	FlushExplicit uint64
}

// emptyImpls returns benchmark service implementations with empty business
// logic (Sec. VI-C: "the business logic is left empty"). Echo — the
// response-direction workload — returns its char-array request verbatim.
func emptyImpls(env *workload.Env) map[string]offload.Impl {
	empty := func(req abi.View) (*protomsg.Message, uint16) { return nil, 0 }
	return map[string]offload.Impl{
		"benchpb.Bench": {
			"CallSmall": empty,
			"CallInts":  empty,
			"CallChars": empty,
			"Echo": func(req abi.View) (*protomsg.Message, uint16) {
				out := protomsg.New(env.CharArray)
				out.SetString("data", string(req.StrName("data")))
				return out, 0
			},
			"EchoBlob": func(req abi.View) (*protomsg.Message, uint16) {
				out := protomsg.New(env.Blob)
				// By reference into the request: the host sends it before it
				// gives the request block back.
				out.SetBytes("data", req.StrName("data"))
				return out, 0
			},
		},
	}
}

// methodName returns the full xRPC method path for a scenario.
func methodName(env *workload.Env, s workload.Scenario) string {
	return xrpc.FullMethodName("benchpb.Bench", env.Service.Methods[s.Method()].Name)
}

// genPayloads pre-generates the cycled request payloads.
func genPayloads(env *workload.Env, s workload.Scenario, opts Options) [][]byte {
	rng := mt19937.New(opts.Seed)
	out := make([][]byte, distinctMessages)
	for i := range out {
		out[i] = env.Gen(s, rng).Marshal(nil)
	}
	return out
}

// xrpcFrameBytes returns the client-facing wire bytes of one call:
// request frame (9B header + 2B method length + method + payload) plus the
// response frame (9B header + 2B status + response payload).
func xrpcFrameBytes(method string, reqLen, respLen int) int {
	return 9 + 2 + len(method) + reqLen + 9 + 2 + respLen
}

// RunFig8 runs both modes for every scenario.
func RunFig8(opts Options) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, s := range workload.Scenarios() {
		base, err := RunBaseline(s, opts)
		if err != nil {
			return nil, fmt.Errorf("baseline %v: %w", s, err)
		}
		rows = append(rows, base)
		off, err := RunOffload(s, opts)
		if err != nil {
			return nil, fmt.Errorf("offload %v: %w", s, err)
		}
		rows = append(rows, off)
	}
	return rows, nil
}

// RunBaseline runs the CPU-deserialization scenario: the host terminates
// xRPC, runs the custom arena deserializer on its own cores, and replies.
func RunBaseline(s workload.Scenario, opts Options) (Fig8Row, error) {
	env := workload.NewEnv()
	base, err := offload.NewBaselineServer(env.Table, emptyImpls(env))
	if err != nil {
		return Fig8Row{}, err
	}
	payloads := genPayloads(env, s, opts)
	method := methodName(env, s)
	h := base.XRPCHandler()
	start := time.Now()
	for i := 0; i < opts.Requests; i++ {
		status, _ := h(method, payloads[i%len(payloads)])
		if status != xrpc.StatusOK {
			return Fig8Row{}, fmt.Errorf("baseline call %d: status %d", i, status)
		}
	}
	wall := time.Since(start)
	st := base.Stats()
	host := machine.Host
	n := float64(st.Requests)

	// Host work: the full server stack per request, the socket-byte cost of
	// the frames, and the deserialization itself.
	frameBytes := 0
	for i := 0; i < opts.Requests; i++ {
		frameBytes += xrpcFrameBytes(method, len(payloads[i%len(payloads)]), 0)
	}
	hostNS := n * host.ReqNS
	hostNS += host.NetByteNS * float64(frameBytes)
	hostNS += host.DeserNS(st.Deser)

	// PCIe traffic in the baseline is the NIC's DMA of those frames (the
	// TCP stream is MTU-coalesced, so no per-operation DMA overhead is
	// added on top of the framing already counted).
	linkBytes := uint64(frameBytes)

	r := machine.Analyze(dpu.Usage{
		Requests:  st.Requests,
		HostNS:    hostNS,
		DPUNS:     0,
		LinkBytes: linkBytes,
	})
	return Fig8Row{
		Scenario:        s,
		Mode:            ModeCPU,
		Result:          r,
		MinCredits:      0, // no RDMA credits in the baseline
		WireBytesPerReq: float64(st.WireBytes) / n,
		PCIeBytesPerReq: float64(linkBytes) / n,
		WallSeconds:     wall.Seconds(),
		WallRPS:         safeDiv(float64(opts.Requests), wall.Seconds()),
	}, nil
}

// RunOffload runs the DPU-offload scenario over the full simulated
// deployment: ADT handshake, xRPC termination on the DPU, in-place
// deserialization into protocol blocks, RPC-over-RDMA to the host.
func RunOffload(s workload.Scenario, opts Options) (Fig8Row, error) {
	env := workload.NewEnv()
	dcfg := opts.deployConfig()
	conns := dcfg.Connections
	d, err := offload.NewDeploymentWith(env.Table, emptyImpls(env), dcfg)
	if err != nil {
		return Fig8Row{}, err
	}
	defer d.Close()
	payloads := genPayloads(env, s, opts)
	method := methodName(env, s)

	start := time.Now()
	submitted, completed, failed := 0, 0, 0
	for completed < opts.Requests {
		for submitted < opts.Requests && submitted-completed < rpcrdma.DefaultConcurrency {
			dpuSrv := d.DPUs[submitted%conns] // round-robin across pollers
			err := dpuSrv.SubmitLocal(method, payloads[submitted%len(payloads)],
				func(status uint16, errFlag bool, resp []byte) {
					completed++
					if status != 0 || errFlag {
						failed++
					}
				})
			if err != nil {
				return Fig8Row{}, err
			}
			submitted++
		}
		for _, dpuSrv := range d.DPUs {
			if _, err := dpuSrv.Progress(); err != nil {
				return Fig8Row{}, err
			}
		}
		if _, err := d.Poller.Progress(); err != nil {
			return Fig8Row{}, err
		}
	}
	wall := time.Since(start)
	if failed > 0 {
		return Fig8Row{}, fmt.Errorf("offload: %d failed calls", failed)
	}

	usage, row := offloadUsage(d, method, opts)
	if opts.Registry != nil {
		// Post-run is the only safe time to read the non-atomic transport
		// counters; the registry series accumulate across runs, so live
		// /metrics shows the flush mix of everything driven so far.
		for _, f := range []struct {
			reason string
			n      uint64
		}{{"full", row.FlushFull}, {"explicit", row.FlushExplicit}} {
			opts.Registry.Counter("rpcrdma_flush_total",
				"message-carrying blocks sealed (one doorbell each), by flush reason",
				map[string]string{"reason": f.reason}).Add(f.n)
		}
	}
	if w := opts.ServerCfg.HostWorkers; w > 1 {
		// The duplex pool bounds how many host cores run handlers and
		// response builds concurrently; the poller alone keeps the paper's
		// ideal even spread.
		usage.HostWorkers = conns * w
		row.HostWorkers = w
	}
	row.Scenario = s
	row.Mode = ModeDPU
	row.Result = machine.Analyze(usage)
	row.WallSeconds = wall.Seconds()
	row.WallRPS = safeDiv(float64(opts.Requests), wall.Seconds())
	return row, nil
}

// runCounters is one instant's aggregate of every counter the usage model
// reads.
type runCounters struct {
	st         offload.DPUStats
	cc, sc     rpcrdma.Counters
	minCredits uint64
	hs         offload.HostStats
	linkBytes  uint64
}

// snapshotCounters aggregates the deployment's counters over every
// connection (and every host poller) at this instant.
func snapshotCounters(d *offload.Deployment) runCounters {
	rc := runCounters{minCredits: ^uint64(0)}
	for _, dpuSrv := range d.DPUs {
		s := dpuSrv.Stats()
		rc.st.Requests += s.Requests
		rc.st.Responses += s.Responses
		rc.st.MeasuredBytes += s.MeasuredBytes
		rc.st.RespBytes += s.RespBytes
		rc.st.SerializedBytes += s.SerializedBytes
		rc.st.CacheHits += s.CacheHits
		rc.st.CacheMisses += s.CacheMisses
		rc.st.CacheProbeBytes += s.CacheProbeBytes
		rc.st.CacheHitReqBytes += s.CacheHitReqBytes
		rc.st.CacheHitRespBytes += s.CacheHitRespBytes
		rc.st.CacheInsertBytes += s.CacheInsertBytes
		rc.st.Deser.Add(s.Deser)
		c := dpuSrv.Client().Counters
		rc.cc.BlocksSent += c.BlocksSent
		rc.cc.BlocksReceived += c.BlocksReceived
		rc.cc.PayloadBytesSent += c.PayloadBytesSent
		rc.cc.FlushFull += c.FlushFull
		rc.cc.FlushExplicit += c.FlushExplicit
		if c.MinCreditsSeen < rc.minCredits {
			rc.minCredits = c.MinCreditsSeen
		}
	}
	for _, p := range d.Pollers {
		for _, conn := range p.Conns() {
			c := conn.Counters
			rc.sc.BlocksSent += c.BlocksSent
			rc.sc.BlocksReceived += c.BlocksReceived
			rc.sc.PayloadBytesSent += c.PayloadBytesSent
			rc.sc.FlushFull += c.FlushFull
			rc.sc.FlushExplicit += c.FlushExplicit
			if c.MinCreditsSeen < rc.minCredits {
				rc.minCredits = c.MinCreditsSeen
			}
		}
	}
	rc.hs = d.Host.Stats()
	rc.linkBytes = d.Link.TotalBytes()
	return rc
}

// offloadUsage converts the run's counters into modeled core time,
// aggregated over all connections.
func offloadUsage(d *offload.Deployment, method string, opts Options) (dpu.Usage, Fig8Row) {
	return usageFromCounters(snapshotCounters(d), method, opts)
}

// usageFromCounters prices a run's counters with the machine model.
func usageFromCounters(rc runCounters, method string, opts Options) (dpu.Usage, Fig8Row) {
	st, cc, sc, hs := rc.st, rc.cc, rc.sc, rc.hs
	minCredits := rc.minCredits
	host := machine.Host
	dpuP := machine.DPU
	n := float64(st.Responses)

	avgReqBlock := int(safeDiv(float64(cc.PayloadBytesSent), float64(cc.BlocksSent)))
	avgRespBlock := int(safeDiv(float64(sc.PayloadBytesSent), float64(sc.BlocksSent)))

	// DPU: xRPC termination (per request + socket bytes), the in-place
	// deserialization, response forwarding, and block handling both ways.
	// In response-serialization-offload mode the DPU does not forward the
	// host's payload verbatim: it receives response objects (RespBytes over
	// the link) and produces the wire bytes itself (SerializedBytes), so the
	// socket side carries the serialized size and the per-byte copy charge is
	// replaced by the serializer charge.
	respWireBytes := st.RespBytes
	if st.SerializedBytes > 0 {
		respWireBytes = st.SerializedBytes
	}
	frameBytes := st.MeasuredBytes + respWireBytes +
		uint64(float64(xrpcFrameBytes(method, 0, 0))*n)
	dpuNS := n * dpuP.ReqNS
	dpuNS += dpuP.NetByteNS * float64(frameBytes)
	dpuNS += dpuP.DeserNS(st.Deser)
	if st.SerializedBytes > 0 {
		dpuNS += dpuP.SerializeNS(int(st.SerializedBytes), 0, int(hs.ResponseMsgs))
	} else {
		dpuNS += dpuP.CopyByteNS * float64(st.RespBytes) // forwarded verbatim
	}
	dpuNS += float64(cc.BlocksSent) * dpuP.BlockCostNS(avgReqBlock)
	dpuNS += float64(cc.BlocksReceived) * dpuP.BlockCostNS(avgRespBlock)
	if !opts.BusyPoll {
		dpuNS += dpuP.WakeupNS * float64(cc.BlocksSent+cc.BlocksReceived)
	}
	// Response cache (internal/rpccache). Every probe pays the fixed lookup
	// plus the hash-and-compare pass over the raw request bytes; hits
	// additionally pay xRPC termination and the socket bytes of their
	// frames — and nothing else: no scan, no block, no host dispatch.
	// Inserts pay the key+value copy into the cache. All of it lands on the
	// DPU; the host never sees a hit, which is the entire point.
	if probes := st.CacheHits + st.CacheMisses; probes > 0 {
		h := float64(st.CacheHits)
		dpuNS += float64(probes) * dpuP.RespCacheProbeNS
		dpuNS += dpuP.RespCacheHashByteNS * float64(st.CacheProbeBytes)
		hitFrameBytes := st.CacheHitReqBytes + st.CacheHitRespBytes +
			uint64(float64(xrpcFrameBytes(method, 0, 0))*h)
		dpuNS += h * dpuP.ReqNS
		dpuNS += dpuP.NetByteNS * float64(hitFrameBytes)
		dpuNS += dpuP.CopyByteNS * float64(st.CacheInsertBytes)
	}

	// Host: the RPC-over-RDMA server side only — no deserialization, no
	// socket bytes (the NIC DMAs blocks directly into the receive buffer).
	hostNS := n * host.RDMAReqNS
	hostNS += float64(sc.BlocksReceived) * host.BlockCostNS(avgReqBlock)
	hostNS += float64(sc.BlocksSent) * host.BlockCostNS(avgRespBlock)
	// Response production on the host: serializing the wire bytes in the
	// default mode, or building the response object into the shared arena in
	// offload mode — the walk over the message tree is the same, so the
	// serializer charge approximates both.
	hostNS += host.SerializeNS(int(hs.ResponseBytes), 0, int(hs.ResponseMsgs))
	if !opts.BusyPoll {
		hostNS += host.WakeupNS * float64(sc.BlocksSent+sc.BlocksReceived)
	}

	linkBytes := rc.linkBytes
	row := Fig8Row{
		MinCredits:      minCredits,
		WireBytesPerReq: safeDiv(float64(st.MeasuredBytes), n),
		PCIeBytesPerReq: safeDiv(float64(linkBytes), n),
		ReqMsgsPerBlock: safeDiv(n, float64(cc.BlocksSent)),
		FlushFull:       cc.FlushFull + sc.FlushFull,
		FlushExplicit:   cc.FlushExplicit + sc.FlushExplicit,
	}
	return dpu.Usage{
		// A cache hit is a completed request every bit as much as a
		// host-answered one: throughput counts both, while the host/DPU core
		// time above charges each path its own cost.
		Requests:  st.Responses + st.CacheHits,
		HostNS:    hostNS,
		DPUNS:     dpuNS,
		LinkBytes: linkBytes,
	}, row
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
