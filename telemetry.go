package dpurpc

import (
	"sync"

	"dpurpc/internal/metrics"
	"dpurpc/internal/trace"
	"dpurpc/internal/xrpc"
)

// rpcMetrics maintains the per-method RPC series of a stack: request and
// error counts, request/response byte volume (all labeled by full method
// name), and an in-flight gauge. Counters are registered lazily on the
// first call of each method and cached, so the steady-state cost per RPC
// is one RLock'd map hit plus a handful of atomic adds.
type rpcMetrics struct {
	reg      *metrics.Registry
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

func newRPCMetrics(reg *metrics.Registry) *rpcMetrics {
	return &rpcMetrics{
		reg:      reg,
		inflight: reg.Gauge("rpc_inflight", "RPCs currently being served", nil),
		methods:  make(map[string]*methodMetrics),
	}
}

func (m *rpcMetrics) method(name string) *methodMetrics {
	m.mu.RLock()
	mm := m.methods[name]
	m.mu.RUnlock()
	if mm != nil {
		return mm
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if mm = m.methods[name]; mm != nil {
		return mm
	}
	l := map[string]string{"method": name}
	mm = &methodMetrics{
		requests:  m.reg.Counter("rpc_requests_total", "RPCs served, by method", l),
		errors:    m.reg.Counter("rpc_errors_total", "RPCs that returned a non-OK status, by method", l),
		reqBytes:  m.reg.Counter("rpc_request_bytes_total", "Serialized request bytes received, by method", l),
		respBytes: m.reg.Counter("rpc_response_bytes_total", "Serialized response bytes sent, by method", l),
	}
	m.methods[name] = mm
	return mm
}

// wrapHandler instruments the xRPC handler.
func (m *rpcMetrics) wrapHandler(h xrpc.ReleasingHandler) xrpc.ReleasingHandler {
	return func(method string, payload []byte) (uint16, []byte, func()) {
		mm := m.method(method)
		mm.requests.Inc()
		mm.reqBytes.Add(uint64(len(payload)))
		m.inflight.Add(1)
		status, resp, release := h(method, payload)
		m.inflight.Add(-1)
		if status != xrpc.StatusOK {
			mm.errors.Inc()
		}
		mm.respBytes.Add(uint64(len(resp)))
		return status, resp, release
	}
}

// wrapHandlerWindow adds windowed latency observation to the handler
// (baseline stacks: no trace IDs, so exemplars stay unresolved).
func wrapHandlerWindow(win *metrics.RPCWindow, h xrpc.ReleasingHandler) xrpc.ReleasingHandler {
	return func(method string, payload []byte) (uint16, []byte, func()) {
		start := trace.Now()
		status, resp, release := h(method, payload)
		win.Observe(trace.Now()-start, 0, status != xrpc.StatusOK)
		return status, resp, release
	}
}
