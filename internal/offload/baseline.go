package offload

import (
	"sync/atomic"

	"dpurpc/internal/abi"
	"dpurpc/internal/adt"
	"dpurpc/internal/arena"
	"dpurpc/internal/deser"
	"dpurpc/internal/xrpc"
)

// BaselineStats aggregates the non-offloaded server's host-side work.
type BaselineStats struct {
	Requests      uint64
	Errors        uint64
	HandlerPanics uint64 // handlers that panicked (answered INTERNAL)
	WireBytes     uint64
	ResponseBytes uint64
	Deser         deser.Stats
}

// BaselineServer is the evaluation's "CPU deserialization" scenario: the
// host terminates xRPC itself and runs the same custom arena deserializer
// on its own cores, then dispatches the same zero-copy views to the same
// handlers. Everything is identical to the offloaded path except *where*
// deserialization runs — which is exactly the comparison of Fig. 8.
type BaselineServer struct {
	table *adt.Table
	procs *procTable

	requests  atomic.Uint64
	errors    atomic.Uint64
	panics    atomic.Uint64
	wireBytes atomic.Uint64
	respBytes atomic.Uint64

	deserMu    chan struct{} // not a lock: stats aggregation token
	statsDeser deser.Stats
}

// NewBaselineServer builds the host-terminated server.
func NewBaselineServer(table *adt.Table, impls map[string]Impl) (*BaselineServer, error) {
	procs, err := buildProcTable(table, impls, true)
	if err != nil {
		return nil, err
	}
	b := &BaselineServer{table: table, procs: procs, deserMu: make(chan struct{}, 1)}
	b.deserMu <- struct{}{}
	return b, nil
}

// Stats returns a snapshot of the counters.
func (b *BaselineServer) Stats() BaselineStats {
	<-b.deserMu
	ds := b.statsDeser
	b.deserMu <- struct{}{}
	return BaselineStats{
		Requests:      b.requests.Load(),
		Errors:        b.errors.Load(),
		HandlerPanics: b.panics.Load(),
		WireBytes:     b.wireBytes.Load(),
		ResponseBytes: b.respBytes.Load(),
		Deser:         ds,
	}
}

// XRPCHandler terminates xRPC on the host: one planned scan sizes and
// validates the payload (on a host core), one fill replays it into a pooled
// scratch arena sized exactly, then dispatch and response serialization.
func (b *BaselineServer) XRPCHandler() xrpc.ServerHandler {
	return func(method string, payload []byte) (uint16, []byte) {
		id, ok := b.procs.byName[method]
		if !ok {
			b.errors.Add(1)
			return xrpc.StatusUnimplemented, nil
		}
		e := b.procs.byID(id)
		sc := scratchPool.Get().(*scratch)
		defer func() {
			<-b.deserMu
			b.statsDeser.Add(sc.d.Stats)
			b.deserMu <- struct{}{}
			sc.d.Stats.Reset()
			scratchPool.Put(sc)
		}()
		notes, err := sc.d.Scan(e.plan, payload)
		if err != nil {
			b.errors.Add(1)
			return xrpc.StatusInvalidArgument, nil
		}
		need := notes.Need() + deser.GuardBytes
		if need > len(sc.buf) {
			sc.buf = make([]byte, need)
		}
		bump := arena.NewBump(sc.buf)
		root, err := sc.d.Fill(e.plan, payload, notes, bump, 0)
		notes.Release()
		if err != nil {
			b.errors.Add(1)
			return xrpc.StatusInvalidArgument, nil
		}
		b.requests.Add(1)
		b.wireBytes.Add(uint64(len(payload)))
		view := abi.MakeView(&abi.Region{Buf: bump.Bytes(), Base: 0}, root, e.in)
		resp, status, panicked := e.call(view)
		if panicked {
			b.panics.Add(1)
		}
		if status != 0 {
			b.errors.Add(1)
			return status, nil
		}
		if resp == nil {
			return xrpc.StatusOK, nil
		}
		out := resp.Marshal(nil)
		b.respBytes.Add(uint64(len(out)))
		return xrpc.StatusOK, out
	}
}
