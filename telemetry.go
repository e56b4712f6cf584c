package dpurpc

import (
	"sync"
	"time"

	"dpurpc/internal/metrics"
	"dpurpc/internal/xrpc"
)

// rpcObserver is a stack's xrpc.Observer. With a registry it maintains the
// per-method RPC series: request and error counts, request/response byte
// volume (all labeled by full method name), and an in-flight gauge. Counters
// are registered lazily on the first call of each method and cached, so the
// steady-state cost per RPC is two RLock'd map hits plus a handful of atomic
// adds. With a window (baseline stacks) it also observes each call's latency,
// from its handler's start to its reply being framed; baseline observations
// carry no trace ID, so exemplars stay unresolved.
type rpcObserver struct {
	reg      *metrics.Registry // nil: no per-method series
	win      *metrics.RPCWindow
	inflight *metrics.Gauge

	mu      sync.RWMutex
	methods map[string]*methodMetrics
}

type methodMetrics struct {
	requests  *metrics.Counter
	errors    *metrics.Counter
	reqBytes  *metrics.Counter
	respBytes *metrics.Counter
}

func newRPCObserver(reg *metrics.Registry, win *metrics.RPCWindow) *rpcObserver {
	o := &rpcObserver{reg: reg, win: win, methods: make(map[string]*methodMetrics)}
	if reg != nil {
		o.inflight = reg.Gauge("rpc_inflight", "RPCs currently being served", nil)
	}
	return o
}

func (o *rpcObserver) method(name string) *methodMetrics {
	o.mu.RLock()
	mm := o.methods[name]
	o.mu.RUnlock()
	if mm != nil {
		return mm
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if mm = o.methods[name]; mm != nil {
		return mm
	}
	l := map[string]string{"method": name}
	mm = &methodMetrics{
		requests:  o.reg.Counter("rpc_requests_total", "RPCs served, by method", l),
		errors:    o.reg.Counter("rpc_errors_total", "RPCs that returned a non-OK status, by method", l),
		reqBytes:  o.reg.Counter("rpc_request_bytes_total", "Serialized request bytes received, by method", l),
		respBytes: o.reg.Counter("rpc_response_bytes_total", "Serialized response bytes sent, by method", l),
	}
	o.methods[name] = mm
	return mm
}

// Begin counts a call and its request bytes as its handler starts.
func (o *rpcObserver) Begin(method string, reqBytes int) {
	if o.reg == nil {
		return
	}
	mm := o.method(method)
	mm.requests.Inc()
	mm.reqBytes.Add(uint64(reqBytes))
	o.inflight.Add(1)
}

// Replied counts a call's outcome and response bytes as its reply is framed.
func (o *rpcObserver) Replied(method string, _ int, status uint16, respBytes int, elapsed time.Duration) {
	if o.reg != nil {
		mm := o.method(method)
		o.inflight.Add(-1)
		if status != xrpc.StatusOK {
			mm.errors.Inc()
		}
		mm.respBytes.Add(uint64(respBytes))
	}
	if o.win != nil {
		o.win.Observe(elapsed.Nanoseconds(), 0, status != xrpc.StatusOK)
	}
}
