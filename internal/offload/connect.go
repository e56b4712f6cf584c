package offload

import (
	"fmt"
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
	// HostConns are the host endpoints the DPUs first connected to,
	// parallel to DPUs (a redial replaces both ends of a connection).
	HostConns []*rpcrdma.ServerConn
	// Cache is the DPU-resident response cache shared by every connection's
	// server (nil unless DeployConfig.CacheMethods is set). Shared state
	// lives here — not on any connection — so it survives redials.
	Cache *rpccache.Cache
}

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
// requests) and every host poller with its duplex pool.
func (d *Deployment) Close() {
	for _, dpu := range d.DPUs {
		dpu.Close()
	}
	for _, p := range d.Pollers {
		p.Close()
	}
}

// DeployConfig extends the basic deployment knobs with the optional
// protocol extensions.
type DeployConfig struct {
	// Connections between the DPU and the host (one DPU poller each).
	Connections int
	ClientCfg   rpcrdma.Config
	ServerCfg   rpcrdma.Config
	// OffloadResponseSerialization moves response serialization to the DPU
	// too: the host writes response objects into the shared region and the
	// DPU produces the protobuf bytes (Sec. III-A's symmetric extension).
	OffloadResponseSerialization bool
	// SGPayloadMin > 0 enables the zero-copy scatter-gather payload path on
	// every connection: singular string/bytes payloads of at least this many
	// wire bytes travel in dedicated 8-aligned segments referenced by offset
	// from the built object (request direction always; response direction
	// when OffloadResponseSerialization is on). 0 keeps all payloads inline.
	SGPayloadMin int
	// CommitBatch > 1 enables commit/doorbell coalescing on both sides of
	// every connection: blocks seal after accumulating this many messages
	// (or CommitFlushTimeout), so one doorbell carries a run of messages.
	// Overrides ClientCfg/ServerCfg when set; 0 leaves the per-side
	// configs in charge (see rpcrdma.Config.CommitBatch).
	CommitBatch int
	// CommitFlushTimeout is the coalescing latency cap paired with
	// CommitBatch (0 = rpcrdma.DefaultCommitFlushTimeout).
	CommitFlushTimeout time.Duration
	// HostPollers is the number of host-side poller threads; connections
	// are distributed round-robin (Sec. III-C: a server poller may share
	// several connections; Table I runs 8 host threads). Default 1.
	HostPollers int
	// HostWorkers > 1 enables the host-side duplex response pipeline on
	// every connection: handlers AND response builds (objconv.ToArena /
	// Marshal) run on a pool of this many workers instead of the poller
	// thread (Sec. III-D's background RPCs), with slots reserved as
	// handlers finish and committed as builds complete.
	HostWorkers int
	// Deprecated: ignored. Each DPU server is one poller per connection;
	// parallelism comes from more connections.
	DPUWorkers int
	// Tracer, when non-nil, enables end-to-end span recording: every call
	// admitted on a DPU server is stamped with a trace ID that rides the
	// request-ID replay to the host and back, and each datapath stage
	// records a span against it (see internal/trace).
	Tracer *trace.Tracer
	// Window, when non-nil, is shared by every DPU server: each completed
	// request adds one end-to-end latency observation (tagged with its trace
	// ID) so /metrics, /anatomy, and /tail report the trailing window.
	Window *metrics.RPCWindow
	// ClientFaults/ServerFaults inject faults into the DPU->host and
	// host->DPU RDMA paths respectively (see internal/fault). Each
	// connection derives its own deterministic schedule (plan seed + index)
	// so multi-connection chaos runs are reproducible but not in lockstep.
	// Nil (the default) keeps the datapath byte-identical to a fault-free
	// build.
	ClientFaults *fault.Plan
	ServerFaults *fault.Plan
	// LinkFaults attaches a stall hook to the simulated PCIe link (StallRate
	// / Stall of the plan; other rates are ignored here).
	LinkFaults *fault.Plan
	// RequestTimeout bounds each offloaded request from enqueue to response
	// on the client (DPU->host) side; expired requests fail typed instead
	// of hanging. Zero disables deadlines — only enable under fault
	// injection (see rpcrdma.Config.RequestTimeout).
	RequestTimeout time.Duration
	// ReconnectBudget > 0 arms transparent reconnect on every DPU server: a
	// broken connection is redialed (fresh QP pair against the same host
	// poller, same per-connection config) up to this many consecutive
	// failures before the break becomes terminal. See
	// DPUConfig.ReconnectBudget.
	ReconnectBudget int
	// ReconnectBackoff / ReconnectMaxBackoff tune the redial backoff
	// schedule (0 = DPUConfig defaults: 200µs doubling to 50ms).
	ReconnectBackoff    time.Duration
	ReconnectMaxBackoff time.Duration
	// DPUAdmitMaxInflight > 0 enables the DPU-side admission gate on every
	// DPU server (see DPUConfig.AdmitMaxInflight).
	DPUAdmitMaxInflight int
	// HostAdmitMaxInflight / HostAdmitArenaFrac enable the host-side
	// admission gate on every server connection (see
	// rpcrdma.Config.AdmitMaxInflight / AdmitArenaFrac).
	HostAdmitMaxInflight int
	HostAdmitArenaFrac   float64
	// CacheMethods opts full method names into the DPU-resident response
	// cache, shared by every connection's DPU server (see
	// DPUConfig.CacheMethods). Empty disables caching entirely.
	CacheMethods []string
	// CacheMaxBytes / CacheMaxEntries / CacheTTL bound the shared cache
	// (0 = rpccache defaults: 8 MiB, unbounded count, no expiry).
	CacheMaxBytes   int
	CacheMaxEntries int
	CacheTTL        time.Duration
}

// NewDeployment performs the handshake and wires conns connections between
// a DPU and the host. impls provides the host-side business logic.
func NewDeployment(hostTable *adt.Table, impls map[string]Impl, conns int,
	ccfg, scfg rpcrdma.Config) (*Deployment, error) {
	return NewDeploymentWith(hostTable, impls, DeployConfig{
		Connections: conns, ClientCfg: ccfg, ServerCfg: scfg,
	})
}

// NewDeploymentWith is NewDeployment with the extension knobs.
func NewDeploymentWith(hostTable *adt.Table, impls map[string]Impl, cfg DeployConfig) (*Deployment, error) {
	conns := cfg.Connections
	if conns == 0 {
		conns = 1
	}
	if cfg.CommitBatch != 0 {
		cfg.ClientCfg.CommitBatch = cfg.CommitBatch
		cfg.ServerCfg.CommitBatch = cfg.CommitBatch
	}
	if cfg.CommitFlushTimeout != 0 {
		cfg.ClientCfg.CommitFlushTimeout = cfg.CommitFlushTimeout
		cfg.ServerCfg.CommitFlushTimeout = cfg.CommitFlushTimeout
	}
	ccfg := cfg.ClientCfg.WithDefaults(true)
	scfg := cfg.ServerCfg.WithDefaults(false)
	scfg.HostWorkers = cfg.HostWorkers
	if cfg.HostAdmitMaxInflight > 0 {
		scfg.AdmitMaxInflight = cfg.HostAdmitMaxInflight
	}
	if cfg.HostAdmitArenaFrac > 0 {
		scfg.AdmitArenaFrac = cfg.HostAdmitArenaFrac
	}
	ccfg.Tracer = cfg.Tracer
	scfg.Tracer = cfg.Tracer
	if cfg.RequestTimeout > 0 {
		ccfg.RequestTimeout = cfg.RequestTimeout
	}
	link := fabric.NewLink()
	if cfg.LinkFaults != nil {
		if inj := fault.New(*cfg.LinkFaults); inj != nil {
			link.SetStaller(inj.Staller)
		}
	}
	dpuDev := rdma.NewDevice("dpu", link, fabric.DPUToHost)
	hostDev := rdma.NewDevice("host", link, fabric.HostToDPU)

	dpuTable, err := Handshake(hostDev, dpuDev, hostTable)
	if err != nil {
		return nil, err
	}
	host, err := NewHostServer(hostTable, impls)
	if err != nil {
		return nil, err
	}
	host.SetResponseObjects(cfg.OffloadResponseSerialization)
	host.SetSGPayloadMin(cfg.SGPayloadMin)
	if cfg.Tracer != nil {
		host.SetTracer(cfg.Tracer)
	}
	hostPollers := cfg.HostPollers
	if hostPollers <= 0 {
		hostPollers = 1
	}
	if hostPollers > conns {
		hostPollers = conns
	}
	// Size each shared server CQ for its share of connections.
	perPoller := (conns + hostPollers - 1) / hostPollers
	pollerCfg := scfg
	if pollerCfg.CQDepth < perPoller*(ccfg.Credits+16) {
		pollerCfg.CQDepth = perPoller * (ccfg.Credits + 16)
	}
	d := &Deployment{Link: link, Host: host}
	if len(cfg.CacheMethods) > 0 {
		// One cache for the whole deployment: every connection's server
		// probes and populates it, so a hot key warmed through any
		// connection serves hits on all of them — and a redial (which swaps
		// a connection, not the deployment) keeps the warm set.
		d.Cache = rpccache.New(rpccache.Config{
			MaxBytes:   cfg.CacheMaxBytes,
			MaxEntries: cfg.CacheMaxEntries,
			TTL:        cfg.CacheTTL,
			Methods:    len(MethodNames(dpuTable)),
		})
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
		if cfg.ClientFaults != nil {
			p := *cfg.ClientFaults
			p.Seed += uint32(i)
			ccfgi.Faults = &p
		}
		if cfg.ServerFaults != nil {
			p := *cfg.ServerFaults
			p.Seed += uint32(i)
			scfgi.Faults = &p
		}
		client, server, err := rpcrdma.Connect(dpuDev, hostDev, ccfgi, scfgi, poller, host.Handler())
		if err != nil {
			return nil, err
		}
		// Redial replays this connection's setup against the same host
		// poller: a fresh QP pair under the identical per-connection config
		// (fault schedule included), attached through the poller's
		// synchronized admission — the dead connection's receive budget is
		// returned when the poller reaps it, so churn does not leak CQ
		// capacity. Runs on the DPU poller goroutine.
		redial := func() (*rpcrdma.ClientConn, error) {
			nc, _, err := rpcrdma.Connect(dpuDev, hostDev, ccfgi, scfgi, poller, host.Handler())
			return nc, err
		}
		dpu, err := NewDPUServerWith(dpuTable, client, DPUConfig{
			Tracer:              cfg.Tracer,
			Window:              cfg.Window,
			SGPayloadMin:        cfg.SGPayloadMin,
			Redial:              redial,
			ReconnectBudget:     cfg.ReconnectBudget,
			ReconnectBackoff:    cfg.ReconnectBackoff,
			ReconnectMaxBackoff: cfg.ReconnectMaxBackoff,
			AdmitMaxInflight:    cfg.DPUAdmitMaxInflight,
			CacheMethods:        cfg.CacheMethods,
			Cache:               d.Cache,
		})
		if err != nil {
			return nil, err
		}
		d.DPUs = append(d.DPUs, dpu)
		d.HostConns = append(d.HostConns, server)
	}
	return d, nil
}
