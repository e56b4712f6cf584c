package offload

import (
	"fmt"
	"sync/atomic"
	"time"

	"dpurpc/internal/adt"
	"dpurpc/internal/fabric"
	"dpurpc/internal/fault"
	"dpurpc/internal/metrics"
	"dpurpc/internal/rdma"
	"dpurpc/internal/rpccache"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/trace"
)

// Handshake transmits the host's encoded ADT to the DPU over a two-sided
// control channel and returns the DPU's decoded table. This happens once at
// application start (Sec. V-B: "the ADT is transmitted from the host to the
// DPU at the start of the application"); Decode independently recomputes
// every layout and verifies the binary-compatibility contract of Sec. V-A.
func Handshake(hostDev, dpuDev *rdma.Device, hostTable *adt.Table) (*adt.Table, error) {
	hostPD := hostDev.AllocPD()
	dpuPD := dpuDev.AllocPD()
	hostCQ := rdma.NewCQ(4)
	dpuCQ := rdma.NewCQ(4)
	hostQP := hostPD.CreateQP(hostCQ, rdma.NewCQ(4), nil)
	dpuQP := dpuPD.CreateQP(rdma.NewCQ(4), dpuCQ, nil)
	rdma.Connect(hostQP, dpuQP)
	defer hostQP.Close()
	defer dpuQP.Close()

	blob := hostTable.Encode()
	recvBuf := make([]byte, len(blob))
	if err := dpuQP.PostRecv(rdma.RecvWR{WRID: 1, Buf: recvBuf}); err != nil {
		return nil, err
	}
	if err := hostQP.PostSend(1, blob); err != nil {
		return nil, err
	}
	var cqes [1]rdma.CQE
	if n, _ := dpuCQ.Wait(cqes[:], time.Second); n != 1 || cqes[0].Status != rdma.StatusOK {
		return nil, fmt.Errorf("offload: ADT handshake failed")
	}
	dpuTable, err := adt.Decode(recvBuf[:cqes[0].ByteLen])
	if err != nil {
		return nil, fmt.Errorf("offload: ADT rejected by DPU: %w", err)
	}
	if err := hostTable.CheckCompatible(dpuTable); err != nil {
		return nil, err
	}
	return dpuTable, nil
}

// Deployment is a fully wired offloaded stack over one simulated PCIe link:
// one host server shared by every connection (dispatching through one or
// more server pollers) and one DPU server per connection.
type Deployment struct {
	Link *fabric.Link
	Host *HostServer
	// Poller is the first host poller (the common single-poller case).
	Poller *rpcrdma.ServerPoller
	// Pollers are all host poller threads; connections are spread across
	// them round-robin.
	Pollers []*rpcrdma.ServerPoller
	DPUs    []*DPUServer
	// hostConns[i] is connection i's current host endpoint, parallel to
	// DPUs: a redial replaces both ends of a connection (see HostConn).
	hostConns []atomic.Pointer[rpcrdma.ServerConn]
	// Cache is the DPU-resident response cache shared by every connection's
	// server (nil unless DeployConfig.CacheMethods is set). Shared state
	// lives here — not on any connection — so it survives redials.
	Cache *rpccache.Cache
}

// HostConn returns connection i's current host endpoint: the server end of
// the pair its DPU server's Client belongs to, replaced with it by each
// redial. Safe from any goroutine; off the host poller only its Gauges and
// Broken may be read while the deployment runs.
func (d *Deployment) HostConn(i int) *rpcrdma.ServerConn { return d.hostConns[i].Load() }

// ProgressHost advances every host poller once and returns the total number
// of request blocks processed.
func (d *Deployment) ProgressHost() (int, error) {
	total := 0
	for _, p := range d.Pollers {
		n, err := p.Progress()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// PollerWakes sums, over every DPU poller and every host poller, why their
// blocking waits returned (rpcrdma.Counters.WakeCQE/WakeKick/WakeTimer). It
// reads the atomic mirrors, so it is safe while the pollers run (a reconnect
// starts that connection's counts again). A loaded deployment wakes for
// completions and kicks; timer wake-ups at a rate near the request rate mean
// requests are waiting out WaitTimeout.
func (d *Deployment) PollerWakes() (cqe, kick, timer uint64) {
	add := func(w *rpcrdma.WakeGauges) {
		cqe += w.CQE.Load()
		kick += w.Kick.Load()
		timer += w.Timer.Load()
	}
	for _, dpu := range d.DPUs {
		add(&dpu.Client().Gauges().Wakes)
	}
	for _, p := range d.Pollers {
		add(p.WakeGauges())
	}
	return cqe, kick, timer
}

// Close shuts down every DPU server (failing its queued and outstanding
// requests) and every host poller with its duplex pool; each connection's
// current buffers then return to rpcrdma's cache for the next deployment
// (rpcrdma.Recycle). The goroutines driving the host pollers must have
// stopped (DPU servers running Run are stopped here). The buffers of a pair
// that a redial replaced are left to the GC.
func (d *Deployment) Close() {
	for _, dpu := range d.DPUs {
		dpu.Close()
	}
	for _, p := range d.Pollers {
		p.Close()
	}
	for i, dpu := range d.DPUs {
		rpcrdma.Recycle(dpu.Client(), d.HostConn(i))
	}
}

// DeployConfig is the one deployment configuration: the offloaded stack
// (dpurpc.StackOptions is this type), the experiment harness (which embeds
// it) and the DPU servers all read their knobs from it. Per-side protocol
// knobs (block size, credits, host workers, deadlines, fault plans) live in
// ClientCfg and ServerCfg alone; the fields here are the ones that span both
// sides or belong to neither protocol endpoint.
type DeployConfig struct {
	// Connections is the number of host<->DPU RPC-over-RDMA connections
	// (one DPU poller each, Sec. III-C). Default 1.
	Connections int
	// ClientCfg / ServerCfg tune the DPU (client) and host (server)
	// protocol endpoints; zero values take the Table I defaults (8 KiB
	// blocks, 256 credits, 3/16 MiB buffers). HostWorkers > 1 on
	// ServerCfg runs the host duplex response pool (handlers must then be
	// safe for concurrent invocation); RequestTimeout on ClientCfg bounds
	// each request (enable it whenever faults are injected). Faults on
	// either side inject deterministic faults (error CQEs, drops, delivery
	// delays, CQ overflows) into that side's sends (see internal/fault);
	// chaos testing only. Connection i runs a copy of the plan with i added
	// to its Seed, so multi-connection chaos runs are reproducible but not
	// in lockstep; the caller's plan is not modified.
	ClientCfg rpcrdma.Config
	ServerCfg rpcrdma.Config
	// OffloadResponseSerialization moves response serialization to the DPU
	// too (Sec. III-A's symmetric extension): host handlers still return
	// messages, but the host writes response objects into the shared region
	// and the DPU produces the protobuf bytes.
	OffloadResponseSerialization bool
	// SGPayloadMin > 0 enables the zero-copy scatter-gather payload path on
	// every connection: singular string/bytes payloads of at least this many
	// wire bytes travel in dedicated 8-aligned segments of the shared
	// region, referenced by offset from the built object and described by
	// an SG table at the front of the message, so the deserializer never
	// copies them through the object arena (request direction always;
	// response direction when OffloadResponseSerialization is on). 0 keeps
	// every payload inline.
	SGPayloadMin int
	// HostPollers is the number of host-side poller threads; connections
	// are distributed round-robin (Sec. III-C: a server poller may share
	// several connections; Table I runs 8 host threads). Default 1; capped
	// at Connections.
	HostPollers int
	// Deprecated: ignored. Each DPU server is one poller per connection;
	// parallelism comes from more connections.
	DPUWorkers int
	// Tracer, when non-nil, stamps every call admitted on a DPU server with
	// a trace ID that rides the request-ID replay to the host and back, and
	// each datapath stage records a span against it (DPU measure/build/
	// commit, PCIe doorbells, host dispatch/handler/response build, DPU
	// response serialize and delivery; see internal/trace). The recording
	// cost is bounded and the datapath never blocks on it.
	Tracer *trace.Tracer
	// Registry, when non-nil, receives the response cache's series and, on
	// a dpurpc stack, the xRPC front end's per-method series (requests,
	// errors, bytes, in-flight). Expose it live as trace.NewDebugMux's
	// DebugOptions.Registry.
	Registry *metrics.Registry
	// Window, when non-nil, is shared by every DPU server: each completed
	// request adds one end-to-end latency observation (tagged with its trace
	// ID) so /metrics, /anatomy and /tail report the trailing window's
	// req/s, quantiles and worst requests.
	Window *metrics.RPCWindow
	// ReconnectBudget > 0 arms transparent reconnect on every DPU server: a
	// broken connection is redialed (fresh QP pair against the same host
	// poller, same per-connection config). Requests in flight on the wire
	// at break time fail typed (UNAVAILABLE, exactly once); queued requests
	// ride through and reserve on the replacement. After this many
	// consecutive failed redials the break is terminal and pending requests
	// fail typed, so a hard-down host still fails fast; a successful redial
	// refills the budget. Redials back off from 200µs, doubling per
	// consecutive failure up to 50ms.
	ReconnectBudget int
	// DPUAdmitMaxInflight > 0 enables DPU-side admission control: new
	// requests are shed with UNAVAILABLE (never entering the reserve-arena
	// bounded wait) while a DPU server already has this many requests
	// admitted, queued for a block slot or outstanding on the wire.
	// Requests already admitted are never shed. 0 admits everything.
	DPUAdmitMaxInflight int
	// CacheMethods opts full method names ("/pkg.Service/Method") into the
	// DPU-resident response cache: repeated byte-identical requests are
	// answered from stored response bytes on the DPU before the scan, the
	// admission gate and the host dispatch. Only list methods whose
	// response depends solely on the request bytes (idempotent,
	// read-mostly); invalidate when the backing state changes. One cache is
	// shared by every connection and survives reconnects, bounded by
	// rpccache's defaults (8 MiB, no count limit, no expiry). Unknown
	// names fail construction; empty disables caching.
	CacheMethods []string
}

// connPlan returns connection i's copy of a deployment's fault plan: the
// same plan with i added to its seed. Nil stays nil.
func connPlan(p *fault.Plan, i int) *fault.Plan {
	if p == nil {
		return nil
	}
	q := *p
	q.Seed += uint32(i)
	return &q
}

// NewDeploymentWith performs the ADT handshake and wires cfg.Connections
// connections between a DPU and the host. impls provides the host-side
// business logic. On error nothing it started keeps running.
func NewDeploymentWith(hostTable *adt.Table, impls map[string]Impl, cfg DeployConfig) (*Deployment, error) {
	conns := cfg.Connections
	if conns == 0 {
		conns = 1
	}
	ccfg := cfg.ClientCfg.WithDefaults(true)
	scfg := cfg.ServerCfg.WithDefaults(false)
	ccfg.Tracer = cfg.Tracer
	scfg.Tracer = cfg.Tracer
	link := fabric.NewLink()
	dpuDev := rdma.NewDevice("dpu", link, fabric.DPUToHost)
	hostDev := rdma.NewDevice("host", link, fabric.HostToDPU)

	dpuTable, err := Handshake(hostDev, dpuDev, hostTable)
	if err != nil {
		return nil, err
	}
	dpuProcs, err := dpuProcTable(dpuTable, cfg.CacheMethods)
	if err != nil {
		return nil, err
	}
	host, err := NewHostServer(hostTable, impls, cfg)
	if err != nil {
		return nil, err
	}
	hostPollers := cfg.HostPollers
	if hostPollers <= 0 {
		hostPollers = 1
	}
	if hostPollers > conns {
		hostPollers = conns
	}
	// Size each shared server CQ for its share of connections plus one
	// spare: a redial attaches the replacement connection before the host
	// poller has reaped the broken one and returned its receive budget.
	perPoller := (conns + hostPollers - 1) / hostPollers
	pollerCfg := scfg
	if pollerCfg.CQDepth < (perPoller+1)*(ccfg.Credits+16) {
		pollerCfg.CQDepth = (perPoller + 1) * (ccfg.Credits + 16)
	}
	d := &Deployment{Link: link, Host: host, hostConns: make([]atomic.Pointer[rpcrdma.ServerConn], conns)}
	if len(cfg.CacheMethods) > 0 {
		// One cache for the whole deployment: every connection's server
		// probes and populates it, so a hot key warmed through any
		// connection serves hits on all of them — and a redial (which swaps
		// a connection, not the deployment) keeps the warm set.
		d.Cache = rpccache.New(rpccache.Config{Methods: len(dpuProcs.entries)})
		if cfg.Registry != nil {
			d.Cache.EnableMetrics(cfg.Registry, MethodNames(hostTable))
		}
	}
	for i := 0; i < hostPollers; i++ {
		d.Pollers = append(d.Pollers, rpcrdma.NewServerPoller(pollerCfg))
	}
	d.Poller = d.Pollers[0]
	for i := 0; i < conns; i++ {
		poller := d.Pollers[i%hostPollers]
		ccfgi, scfgi := ccfg, scfg
		if ccfgi.FlightRecorder > 0 && ccfgi.FlightLabel == "" {
			ccfgi.FlightLabel = fmt.Sprintf("conn%d", i)
		}
		ccfgi.Faults = connPlan(ccfg.Faults, i)
		scfgi.Faults = connPlan(scfg.Faults, i)
		client, server, err := rpcrdma.Connect(dpuDev, hostDev, ccfgi, scfgi, poller, host.Handler())
		if err != nil {
			// Close the DPU servers and pollers built so far; the pollers
			// join their connections' duplex workers.
			d.Close()
			return nil, err
		}
		d.hostConns[i].Store(server)
		// Redial replays this connection's setup against the same host
		// poller: a fresh QP pair under the identical per-connection config
		// (fault schedule included), attached through the poller's
		// synchronized admission. The dead connection's receive budget
		// returns only when the poller reaps it, so the replacement attaches
		// into the spare connection's share of the CQ sized above; a second
		// break before that reap costs one failed redial and a backoff.
		// Runs on the DPU poller goroutine.
		hostConn := &d.hostConns[i]
		redial := func() (*rpcrdma.ClientConn, error) {
			nc, ns, err := rpcrdma.Connect(dpuDev, hostDev, ccfgi, scfgi, poller, host.Handler())
			if err != nil {
				return nil, err
			}
			hostConn.Store(ns)
			return nc, nil
		}
		d.DPUs = append(d.DPUs, newDPUServer(dpuProcs, client, cfg, redial, d.Cache))
	}
	return d, nil
}
