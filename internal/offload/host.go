package offload

import (
	"sync/atomic"

	"dpurpc/internal/abi"
	"dpurpc/internal/adt"
	"dpurpc/internal/arena"
	"dpurpc/internal/objconv"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/trace"
)

// HostStats aggregate the host-side work of the offloaded path.
type HostStats struct {
	Requests       uint64 // handler invocations
	ResponseBytes  uint64 // serialized response bytes produced on the host
	ResponseMsgs   uint64 // non-empty responses serialized
	HandlerErrors  uint64 // non-OK handler statuses, panics included
	HandlerPanics  uint64 // handlers that panicked (answered INTERNAL)
	UnknownMethods uint64
}

// HostServer is the compatibility layer of Sec. V-D: it mocks the xRPC
// server on the host, interpreting RPC-over-RDMA requests as xRPC requests
// and dispatching them to the user's service callbacks with zero-copy
// request views. Existing service implementations keep their shape; only
// the transport underneath changed.
type HostServer struct {
	table *adt.Table
	procs *procTable
	// respObjects enables the response-serialization offload (Sec. III-A:
	// "this can be implemented similarly in our design"): the host writes
	// response *objects* into the shared region and the DPU serializes
	// them for the xRPC client.
	respObjects bool
	// sgPayloadMin > 0 enables scatter-gather framing on object responses:
	// top-level singular string/bytes payloads of at least this many bytes
	// are placed once into dedicated 8-aligned segments of the response slot
	// and the object references them by offset, instead of spilling a second
	// copy through the object arena. Only effective with respObjects.
	sgPayloadMin int
	// reqObserver, when set, sees every dispatched request before its
	// handler runs. Test hook (byte-identity pins). Called from whichever
	// goroutine runs the handler — synchronize externally when pollers or
	// duplex workers are concurrent.
	reqObserver func(rpcrdma.Request)
	// tracer resolves propagated trace IDs (Request.Trace) and records a
	// host.handler span around every traced dispatch.
	tracer *trace.Tracer
	// started flips on the first dispatched request; the setters above
	// refuse to run after that (they would race the handler goroutines).
	started atomic.Bool

	requests       atomic.Uint64
	responseBytes  atomic.Uint64
	responseMsgs   atomic.Uint64
	handlerErrors  atomic.Uint64
	handlerPanics  atomic.Uint64
	unknownMethods atomic.Uint64
}

// NewHostServer builds the host side from the application's ADT table and
// service implementations (every service in the table must be implemented).
func NewHostServer(table *adt.Table, impls map[string]Impl) (*HostServer, error) {
	procs, err := buildProcTable(table, impls, true)
	if err != nil {
		return nil, err
	}
	return &HostServer{table: table, procs: procs}, nil
}

// SetResponseObjects toggles the response-serialization offload. Must be
// called before serving: once the first request has dispatched, flipping
// the mode would race the handler goroutines, so this panics instead of
// silently corrupting state.
func (h *HostServer) SetResponseObjects(on bool) {
	if h.started.Load() {
		panic("offload: HostServer.SetResponseObjects called after serving started")
	}
	h.respObjects = on
}

// SetSGPayloadMin sets the scatter-gather payload threshold for object
// responses (0 disables SG framing). Must be called before serving: once the
// first request has dispatched, changing the threshold would race the
// handler goroutines, so this panics instead of silently corrupting state.
func (h *HostServer) SetSGPayloadMin(min int) {
	if h.started.Load() {
		panic("offload: HostServer.SetSGPayloadMin called after serving started")
	}
	h.sgPayloadMin = min
}

// SetRequestObserver installs a hook that sees every dispatched request
// (its payload aliases the receive block — copy or digest, don't retain).
// Must be called before serving: once the first request has dispatched,
// swapping the hook would race the handler goroutines, so this panics
// instead of silently racing.
func (h *HostServer) SetRequestObserver(fn func(rpcrdma.Request)) {
	if h.started.Load() {
		panic("offload: HostServer.SetRequestObserver called after serving started")
	}
	h.reqObserver = fn
}

// SetTracer installs the span recorder used to time handler execution of
// traced requests. Must be called before serving: once the first request
// has dispatched, swapping it would race the handler goroutines, so this
// panics instead of silently racing.
func (h *HostServer) SetTracer(t *trace.Tracer) {
	if h.started.Load() {
		panic("offload: HostServer.SetTracer called after serving started")
	}
	h.tracer = t
}

// Stats returns a snapshot of the host-side counters.
func (h *HostServer) Stats() HostStats {
	return HostStats{
		Requests:       h.requests.Load(),
		ResponseBytes:  h.responseBytes.Load(),
		ResponseMsgs:   h.responseMsgs.Load(),
		HandlerErrors:  h.handlerErrors.Load(),
		HandlerPanics:  h.handlerPanics.Load(),
		UnknownMethods: h.unknownMethods.Load(),
	}
}

// Handler returns the rpcrdma handler that performs the dispatch. Pass it
// to rpcrdma.Connect for every connection feeding this host server. Traced
// requests get a host.handler span around the whole dispatch (view
// construction, business handler, response sizing), recorded against the
// goroutine lane that ran it (Request.Worker).
func (h *HostServer) Handler() rpcrdma.Handler {
	return func(req rpcrdma.Request) rpcrdma.ResponseSpec {
		if !h.started.Load() {
			h.started.Store(true)
		}
		if h.tracer == nil || req.Trace == 0 {
			return h.dispatch(req)
		}
		a := h.tracer.Lookup(req.Trace)
		if a == nil {
			return h.dispatch(req)
		}
		t0 := trace.Now()
		spec := h.dispatch(req)
		a.Span(trace.StageHostHandler, trace.ProcHost, req.Worker, t0, trace.Now())
		return spec
	}
}

// dispatch resolves and runs the handler for one request.
func (h *HostServer) dispatch(req rpcrdma.Request) rpcrdma.ResponseSpec {
	if h.reqObserver != nil {
		h.reqObserver(req)
	}
	e := h.procs.byID(req.Method)
	if e == nil || e.handler == nil {
		h.unknownMethods.Add(1)
		return rpcrdma.ResponseSpec{Status: uint16(StatusUnimplemented), Err: true}
	}
	h.requests.Add(1)
	// The request arrives as an already-built object: construct the
	// zero-copy view over the block payload. No deserialization happens
	// on the host — that is the offload.
	region := &abi.Region{Buf: req.Payload, Base: req.RegionOff}
	view := abi.MakeView(region, req.RegionOff+uint64(req.Root), e.in)
	if !view.Valid() {
		h.handlerErrors.Add(1)
		return rpcrdma.ResponseSpec{Status: uint16(StatusInvalidArgument), Err: true}
	}
	resp, status, panicked := e.call(view)
	if panicked {
		h.handlerPanics.Add(1)
	}
	if status != 0 {
		h.handlerErrors.Add(1)
		return rpcrdma.ResponseSpec{Status: status, Err: true}
	}
	if resp == nil {
		return rpcrdma.ResponseSpec{Status: 0}
	}
	h.responseMsgs.Add(1)
	if h.respObjects {
		// Response-serialization offload: build the response *object*
		// in the shared region; the DPU turns it into protobuf bytes.
		size, err := objconv.MeasureMessage(e.out, resp)
		if err != nil {
			h.handlerErrors.Add(1)
			return rpcrdma.ResponseSpec{Status: uint16(StatusInternal), Err: true}
		}
		h.responseBytes.Add(uint64(size))
		// SG framing is decided here, at spec time: the spec is copied by
		// value into the response pipeline before Build runs, and Size must
		// already cover the table and segment area.
		var sgFields []*protodesc.Field
		segBytes, objSize := 0, size
		if h.sgPayloadMin > 0 {
			// Strings at or under the SSO capacity are already inline in the
			// record and never worth a segment, whatever the threshold says.
			min := h.sgPayloadMin
			if min <= abi.SSOCapacity {
				min = abi.SSOCapacity + 1
			}
			for i := range e.out.Fields {
				f := e.out.Fields[i].Desc
				if f.Repeated || (f.Kind != protodesc.KindString && f.Kind != protodesc.KindBytes) {
					continue
				}
				if !resp.Has(f.Name) {
					continue
				}
				if n := len(resp.Bytes(f.Name)); n >= min {
					sgFields = append(sgFields, f)
					segBytes += alignUp8(n)
					// MeasureMessage counted this payload as an arena spill;
					// as a segment it leaves the object area.
					objSize -= n
				}
			}
		}
		if len(sgFields) == 0 {
			return rpcrdma.ResponseSpec{
				Status: 0,
				Object: true,
				Size:   size,
				Build: func(dst []byte, regionOff uint64) (uint32, int, error) {
					b := abi.NewBuilder(arena.NewBump(dst), regionOff)
					obj, err := objconv.ToArena(b, e.out, resp)
					if err != nil {
						return 0, 0, err
					}
					return uint32(obj.Off() - regionOff), b.Used(), nil
				},
			}
		}
		// SG slot layout: [SG table][object area][payload segments].
		tbl := rpcrdma.SGTableSize(len(sgFields))
		segOff := tbl + alignUp8(objSize)
		total := segOff + segBytes
		return rpcrdma.ResponseSpec{
			Status:  0,
			Object:  true,
			Size:    total,
			SG:      true,
			SGSegs:  len(sgFields),
			SGBytes: segBytes,
			Build: func(dst []byte, regionOff uint64) (uint32, int, error) {
				// Place each payload once into its 8-aligned segment
				// (padding zeroed so reserved-slot garbage never rides the
				// wire), then build the object referencing the segments.
				descs := make([]rpcrdma.SGDesc, 0, len(sgFields))
				refs := make(map[*protodesc.Field]uint64, len(sgFields))
				cur := segOff
				for _, f := range sgFields {
					data := resp.Bytes(f.Name)
					end := cur + len(data)
					copy(dst[cur:end], data)
					for pad := end; pad < cur+alignUp8(len(data)); pad++ {
						dst[pad] = 0
					}
					refs[f] = regionOff + uint64(cur)
					descs = append(descs, rpcrdma.SGDesc{
						Field: uint32(f.Number), Off: uint32(cur), Len: uint32(len(data))})
					cur += alignUp8(len(data))
				}
				b := abi.NewBuilder(arena.NewBump(dst[tbl:segOff]), regionOff+uint64(tbl))
				obj, err := objconv.ToArenaPlaced(b, e.out, resp,
					func(f *protodesc.Field, data []byte) (uint64, bool) {
						ref, ok := refs[f]
						return ref, ok
					})
				if err != nil {
					return 0, 0, err
				}
				rpcrdma.PutSGTable(dst[:tbl], descs)
				return uint32(obj.Off() - regionOff), total, nil
			},
		}
	}
	// Default mode, as in the paper: response serialization stays on
	// the host; the bytes are written directly into the response block
	// and the DPU forwards them to the xRPC client untouched.
	size := resp.Size()
	h.responseBytes.Add(uint64(size))
	return rpcrdma.ResponseSpec{
		Status: 0,
		Size:   size,
		Build: func(dst []byte, regionOff uint64) (uint32, int, error) {
			out := resp.Marshal(dst[:0])
			return 0, len(out), nil
		},
	}
}

// Status codes shared with the xRPC layer.
const (
	StatusUnimplemented   = 12
	StatusInvalidArgument = 3
	StatusInternal        = 13
)
