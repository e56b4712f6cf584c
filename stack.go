package dpurpc

import (
	"errors"
	"net"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpurpc/internal/deser"
	"dpurpc/internal/metrics"
	"dpurpc/internal/offload"
	"dpurpc/internal/rpccache"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/trace"
	"dpurpc/internal/xrpc"
)

// StackOptions configure a deployment. They are the deployment's one
// configuration, offload.DeployConfig, just as Config is rpcrdma.Config:
// per-side protocol knobs (commit batching, host workers, deadlines) are
// set on ClientCfg/ServerCfg, everything else once on the options.
// Baseline stacks read only Registry and Window.
type StackOptions = offload.DeployConfig

// Stack is a running RPC deployment: either offloaded (DPU-terminated) or
// baseline (host-terminated). Both serve the same xRPC protocol, so clients
// need only a different address — exactly the paper's "only configuration
// change" property.
type Stack struct {
	handler xrpc.Handler
	srv     *xrpc.Server

	mu      sync.Mutex
	stops   []chan struct{}
	pollers sync.WaitGroup // host poller goroutines; waited before deployment.Close
	serving bool
	closed  bool

	// handlerPanics counts business handlers that panicked (and answered
	// INTERNAL), on whichever side runs them.
	handlerPanics func() uint64

	// Offloaded-only internals (nil for the baseline).
	deployment *offload.Deployment
	schema     *Schema // method-name resolution for InvalidateMethod

	// Observability (nil unless configured in StackOptions).
	registry *metrics.Registry
	tracer   *trace.Tracer
	window   *metrics.RPCWindow
}

// NewOffloadedStack wires the paper's deployment: ADT handshake, DPU
// middleman, RPC-over-RDMA connections, and the host compatibility layer
// dispatching to impls.
func NewOffloadedStack(schema *Schema, impls map[string]Impl, opts StackOptions) (*Stack, error) {
	d, err := offload.NewDeploymentWith(schema.Table, impls, opts)
	if err != nil {
		return nil, err
	}
	st := &Stack{deployment: d, schema: schema, registry: opts.Registry, tracer: opts.Tracer, window: opts.Window,
		handlerPanics: func() uint64 { return d.Host.Stats().HandlerPanics }}
	// One poller goroutine per DPU connection plus one host server poller.
	for _, dpuSrv := range d.DPUs {
		stop := make(chan struct{})
		st.stops = append(st.stops, stop)
		go dpuSrv.Run(stop)
	}
	for _, poller := range d.Pollers {
		poller := poller
		hostStop := make(chan struct{})
		st.stops = append(st.stops, hostStop)
		st.pollers.Add(1)
		go func() {
			defer st.pollers.Done()
			for {
				select {
				case <-hostStop:
					return
				default:
					// One broken connection (fault injection, peer death)
					// must not stop service for its siblings on this poller.
					if _, err := poller.Progress(); err != nil &&
						!errors.Is(err, rpcrdma.ErrConnBroken) {
						return
					}
				}
			}
		}()
	}
	// The xRPC front end spreads calls across the DPU connections
	// round-robin (the many-to-one-to-one multiplexing of Sec. III-C).
	handlers := make([]xrpc.Handler, len(d.DPUs))
	for i, dpuSrv := range d.DPUs {
		handlers[i] = dpuSrv.XRPCHandler()
	}
	var next atomic.Uint64
	st.handler = func(call *xrpc.Call) {
		handlers[(next.Add(1)-1)%uint64(len(handlers))](call)
	}
	st.instrument()
	return st, nil
}

// NewBaselineStack wires the evaluation baseline: the host terminates xRPC
// and runs the same arena deserializer on its own cores.
func NewBaselineStack(schema *Schema, impls map[string]Impl, opts StackOptions) (*Stack, error) {
	base, err := offload.NewBaselineServer(schema.Table, impls)
	if err != nil {
		return nil, err
	}
	st := &Stack{handler: base.XRPCHandler().Async(), registry: opts.Registry, window: opts.Window,
		handlerPanics: func() uint64 { return base.Stats().HandlerPanics }}
	st.instrument()
	return st, nil
}

// instrument builds the xRPC server around the handler and, when a registry
// is configured or — on baseline stacks — a window, installs the reply
// observer that keeps the per-method series and the windowed latency
// (offloaded stacks observe latency at the DPU poller instead, where the
// trace ID is at hand).
func (s *Stack) instrument() {
	s.srv = xrpc.NewAsyncServer(s.handler)
	var win *metrics.RPCWindow
	if s.deployment == nil {
		win = s.window
	}
	if s.registry != nil || win != nil {
		s.srv.SetObserver(newRPCObserver(s.registry, win))
	}
}

// Metrics returns the registry configured in StackOptions (nil if none).
func (s *Stack) Metrics() *metrics.Registry { return s.registry }

// Tracer returns the tracer configured in StackOptions (nil if none).
func (s *Stack) Tracer() *trace.Tracer { return s.tracer }

// Window returns the RPC window configured in StackOptions (nil if none).
func (s *Stack) Window() *metrics.RPCWindow { return s.window }

// RegisterGauges registers this stack's live resource sources on a sampler:
// the xRPC front end's replies and the socket writes that carried them, its
// bounds (request-frame bytes in flight, connections stopped at the
// frame-byte cap, connections closed idle), the business
// handlers that panicked and answered INTERNAL, and, on offloaded
// stacks, per-connection protocol-endpoint state (arena occupancy, send-queue
// and partial-block depth, outstanding requests, credits, and the liveness
// signals: credit stalls, ack-only blocks, acknowledgments pending) refreshed
// by each DPU poller pass, each DPU server's sheds, reconnects and redial
// failures, plus the deployment-wide poller wake-up mix
// (rpcrdma_poller_wakeups_total by reason), and on both stacks the process
// heap (allocations, live bytes, GC cycles). The sampler polls them at its
// own low rate; the datapath only ever writes a handful of atomics.
func (s *Stack) RegisterGauges(smp *metrics.Sampler) {
	if smp == nil {
		return
	}
	smp.Register("xrpc_frame_bytes_in_flight",
		"Capacity of the pooled request frames xRPC connections currently own.", nil,
		func() float64 { return float64(s.srv.Stats().FrameBytesInFlight) })
	smp.Register("xrpc_requests_total",
		"Calls the xRPC front end has replied to.", nil,
		func() float64 { return float64(s.srv.Stats().Requests) })
	smp.Register("xrpc_response_flushes_total",
		"Socket writes carrying xRPC responses: each connection's writer makes one per batch of ready replies.", nil,
		func() float64 { return float64(s.srv.Stats().ResponseFlushes) })
	smp.Register("rpc_conn_bytes_capped_total",
		"Times an xRPC connection stopped reading at its in-flight frame-byte cap.", nil,
		func() float64 { return float64(s.srv.Stats().BytesCapped) })
	smp.Register("rpc_conn_idle_closed_total",
		"xRPC connections closed by the idle read deadline.", nil,
		func() float64 { return float64(s.srv.Stats().IdleClosed) })
	smp.Register("host_handler_panics_total",
		"Business handlers that panicked; each call answered INTERNAL.", nil,
		func() float64 { return float64(s.handlerPanics()) })
	// Both stacks decode with Scan, whose packed-varint decoder is chosen
	// once per process by CPU: avx512, else bmi2, else portable. Each is
	// several times faster than the next on packed ints, so ints-heavy
	// throughput depends on which one runs.
	smp.Register("deser_varint_kernel_info",
		"Packed-varint block decoder this process runs (avx512: AVX-512 VBMI2 assembly; bmi2: BMI2 assembly; portable: Go loop).",
		map[string]string{"kernel": deser.Kernel()}, func() float64 { return 1 })
	registerHeapGauges(smp)
	if s.deployment == nil {
		return
	}
	// Why the pollers (DPU and host, summed) left their blocking wait. Under
	// load timer stays flat while cqe and kick climb; timer climbing at the
	// request rate means requests are waiting out the heartbeat.
	for i, reason := range []string{"cqe", "kick", "timer"} {
		i := i
		smp.Register("rpcrdma_poller_wakeups_total",
			"Returns from the pollers' blocking wait, by what ended it.",
			map[string]string{"reason": reason},
			func() float64 {
				cqe, kick, timer := s.deployment.PollerWakes()
				return float64([3]uint64{cqe, kick, timer}[i])
			})
	}
	// Each connection's occupancy, from both of its ends: side="dpu" is the
	// DPU's request sender, side="host" the host's response sender.
	for i, dpu := range s.deployment.DPUs {
		conn := strconv.Itoa(i)
		registerConnGauges(smp, map[string]string{"conn": conn, "side": "dpu"}, dpu.Client().Gauges())
		registerConnGauges(smp, map[string]string{"conn": conn, "side": "host"}, s.deployment.HostConns[i].Gauges())
		// The DPU server outlives its connection (a reconnect swaps only the
		// connection), so these count across reconnects.
		l := map[string]string{"conn": conn}
		smp.Register("dpu_sheds_total",
			"Requests the DPU admission gate answered UNAVAILABLE.", l,
			func() float64 { return float64(dpu.Stats().Sheds) })
		smp.Register("dpu_reconnects_total",
			"Broken connections the DPU replaced by a redial.", l,
			func() float64 { return float64(dpu.Stats().Reconnects) })
		smp.Register("dpu_redial_failures_total",
			"Redial attempts that failed (each doubles the backoff toward the reconnect budget).", l,
			func() float64 { return float64(dpu.Stats().RedialFails) })
	}
}

// registerHeapGauges registers the process heap series, read through
// runtime/metrics, which needs no stop-the-world (runtime.ReadMemStats
// does). The allocation counters rising by many objects per request mark a
// datapath that has started allocating again.
func registerHeapGauges(smp *metrics.Sampler) {
	for _, g := range []struct{ name, help, src string }{
		{"go_heap_allocs_objects_total", "Heap objects allocated since the process started.", "/gc/heap/allocs:objects"},
		{"go_heap_allocs_bytes_total", "Heap bytes allocated since the process started.", "/gc/heap/allocs:bytes"},
		{"go_heap_live_bytes", "Heap bytes the last GC cycle found live.", "/gc/heap/live:bytes"},
		{"go_gc_cycles_total", "Completed GC cycles.", "/gc/cycles/total:gc-cycles"},
	} {
		smp.Register(g.name, g.help, nil, func() float64 {
			s := []rtmetrics.Sample{{Name: g.src}}
			rtmetrics.Read(s)
			return float64(s[0].Value.Uint64()) // all four are uint64 since go 1.21
		})
	}
}

// registerConnGauges registers one connection endpoint's conn_* series.
func registerConnGauges(smp *metrics.Sampler, l map[string]string, g *rpcrdma.ConnGauges) {
	smp.Register("conn_arena_in_use_bytes",
		"Send-arena bytes in use on the endpoint.", l,
		func() float64 { return float64(g.ArenaInUse.Load()) })
	smp.Register("conn_arena_size_bytes",
		"Send-arena capacity of the endpoint.", l,
		func() float64 { return float64(g.ArenaSize.Load()) })
	smp.Register("conn_send_queue_depth",
		"Sealed blocks waiting for credits or request IDs.", l,
		func() float64 { return float64(g.SendQueued.Load()) })
	smp.Register("conn_partial_block_msgs",
		"Messages buffered in the unsealed partial block.", l,
		func() float64 { return float64(g.PartialMsgs.Load()) })
	smp.Register("conn_unacked_blocks",
		"Blocks sent but not yet acknowledged by the peer.", l,
		func() float64 { return float64(g.Unacked.Load()) })
	smp.Register("conn_outstanding_requests",
		"Requests in flight on the endpoint: awaiting a response (dpu) or being answered (host).", l,
		func() float64 { return float64(g.Outstanding.Load()) })
	smp.Register("conn_credits",
		"Send credits remaining on the endpoint.", l,
		func() float64 { return float64(g.Credits.Load()) })
	smp.Register("conn_credit_stalls_total",
		"Sends deferred for lack of a credit on the endpoint.", l,
		func() float64 { return float64(g.CreditStalls.Load()) })
	smp.Register("conn_ack_only_blocks_total",
		"Empty blocks the endpoint sent only to carry acknowledgments.", l,
		func() float64 { return float64(g.AckOnlyBlocks.Load()) })
	smp.Register("conn_acks_pending",
		"Blocks the endpoint received and may acknowledge but has not yet.", l,
		func() float64 { return float64(g.AcksPending.Load()) })
	smp.Register("conn_gather_bytes_total",
		"Payload bytes the endpoint posted straight from caller memory, never copied into its send buffer.", l,
		func() float64 { return float64(g.GatherBytes.Load()) })
	for _, c := range []struct {
		name, help string
		v          *atomic.Uint64
	}{
		{"conn_send_fault_retries_total", "Posts the wire rejected that the endpoint rolled back and sent again.", &g.SendFaultRetries},
		{"conn_requests_timed_out_total", "Requests the endpoint reaped at RequestTimeout.", &g.RequestsTimedOut},
		{"conn_late_responses_dropped_total", "Responses the endpoint discarded because their request had timed out.", &g.LateResponsesDropped},
		{"conn_send_full_recoveries_total", "Send-arena exhaustions the endpoint recovered by waiting for acknowledgments.", &g.SendFullRecoveries},
		{"conn_admission_sheds_total", "Requests the endpoint's admission control answered UNAVAILABLE.", &g.AdmissionSheds},
	} {
		smp.Register(c.name, c.help, l, func() float64 { return float64(c.v.Load()) })
	}
}

// Cache returns the deployment's shared response cache (nil unless
// StackOptions.CacheMethods was set, and always nil for baseline stacks).
func (s *Stack) Cache() *rpccache.Cache {
	if s.deployment == nil {
		return nil
	}
	return s.deployment.Cache
}

// InvalidateMethod drops every cached response of one method — the explicit
// hook for the application to call when the state backing an idempotent
// method changes. Returns the number of entries dropped (0 when the method
// is unknown, uncached, or the stack has no cache).
func (s *Stack) InvalidateMethod(service, method string) int {
	c := s.Cache()
	if c == nil {
		return 0
	}
	full := xrpc.FullMethodName(service, method)
	for id, name := range offload.MethodNames(s.schema.Table) {
		if name == full {
			return c.InvalidateMethod(uint16(id))
		}
	}
	return 0
}

// Handler exposes the raw xRPC handler (useful for in-process testing
// without TCP), waiting for each call's reply; calls through it bypass the
// front end and its metrics. The response is the caller's to keep: a pooled
// response buffer is copied out and released before returning.
func (s *Stack) Handler() func(method string, payload []byte) (status uint16, resp []byte) {
	return s.handler.Copying()
}

// Deployment returns the offloaded deployment internals (nil for the
// baseline) — counters, link statistics, host/DPU stats.
func (s *Stack) Deployment() *offload.Deployment { return s.deployment }

// ListenAndServe starts serving xRPC on addr ("host:0" picks a free port)
// and returns the bound address.
func (s *Stack) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	if err := s.Serve(ln); err != nil {
		ln.Close()
		return "", err
	}
	return ln.Addr().String(), nil
}

// Serve starts serving xRPC on an existing listener (non-blocking).
func (s *Stack) Serve(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("dpurpc: stack closed")
	}
	if s.serving {
		return errors.New("dpurpc: already serving")
	}
	s.serving = true
	go s.srv.Serve(ln)
	return nil
}

// Close stops the xRPC front end and the pollers.
func (s *Stack) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.srv.Close()
	for _, stop := range s.stops {
		close(stop)
	}
	if s.deployment != nil {
		// A host poller asleep in its wait sees its stop channel only when
		// it wakes; ring it rather than wait out the heartbeat. (The DPU
		// pollers are rung by deployment.Close below.)
		for _, p := range s.deployment.Pollers {
			p.Wake()
		}
		// Host pollers drive the duplex response pipeline; let them drain
		// out before Close tears down the worker pools under them.
		s.pollers.Wait()
		s.deployment.Close() // stops the worker pools
	}
}

// Client is a typed xRPC client.
type Client struct {
	c *xrpc.Client
}

// Dial connects to a stack's xRPC address.
func Dial(addr string) (*Client, error) {
	c, err := xrpc.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Call performs a unary RPC: req is serialized with the standard protobuf
// encoder, and the response is decoded into a fresh message of the method's
// output type.
func (c *Client) Call(schema *Schema, service, method string, req *Message) (*Message, error) {
	return c.CallTimeout(schema, service, method, req, 0)
}

// SetRetryPolicy installs the retry policy used by CallRetry and resets
// its token-bucket budget to full.
func (c *Client) SetRetryPolicy(p RetryPolicy) { c.c.SetRetryPolicy(p) }

// CallRetry is CallTimeout with the installed RetryPolicy applied:
// transient failures (timeouts, DEADLINE_EXCEEDED, UNAVAILABLE) are retried
// with exponential backoff while attempts and the retry budget allow. The
// timeout applies per attempt.
func (c *Client) CallRetry(schema *Schema, service, method string, req *Message, timeout time.Duration) (*Message, error) {
	return c.call(schema, service, method, req, timeout, true)
}

// CallTimeout is Call with a deadline (0 means none).
func (c *Client) CallTimeout(schema *Schema, service, method string, req *Message, timeout time.Duration) (*Message, error) {
	return c.call(schema, service, method, req, timeout, false)
}

func (c *Client) call(schema *Schema, service, method string, req *Message, timeout time.Duration, retry bool) (*Message, error) {
	svc := schema.Registry.Service(service)
	if svc == nil {
		return nil, errors.New("dpurpc: unknown service " + service)
	}
	m := svc.MethodByName(method)
	if m == nil {
		return nil, errors.New("dpurpc: unknown method " + method)
	}
	if req.Descriptor() != m.Input {
		return nil, errors.New("dpurpc: request type mismatch")
	}
	var status uint16
	var payload []byte
	var err error
	if retry {
		status, payload, err = c.c.CallRetry(xrpc.FullMethodName(service, method), req.Marshal(nil), timeout)
	} else {
		status, payload, err = c.c.CallTimeout(xrpc.FullMethodName(service, method), req.Marshal(nil), timeout)
	}
	if err != nil {
		return nil, err
	}
	if status != xrpc.StatusOK {
		return nil, errors.New("dpurpc: rpc failed: " + xrpc.StatusText(status))
	}
	out := schema.NewMessage(m.Output.Name)
	if err := out.Unmarshal(payload); err != nil {
		return nil, err
	}
	return out, nil
}

// Raw exposes the underlying transport client for pipelined asynchronous
// use.
func (c *Client) Raw() *xrpc.Client { return c.c }

// Close tears down the connection.
func (c *Client) Close() error { return c.c.Close() }

// DefaultClientConfig returns the Table I client (DPU) configuration.
func DefaultClientConfig() Config { return rpcrdma.DefaultClientConfig() }

// DefaultServerConfig returns the Table I server (host) configuration.
func DefaultServerConfig() Config { return rpcrdma.DefaultServerConfig() }
