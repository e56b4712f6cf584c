package offload

import (
	"sync"
	"sync/atomic"

	"dpurpc/internal/abi"
	"dpurpc/internal/adt"
	"dpurpc/internal/arena"
	"dpurpc/internal/objconv"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/protomsg"
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
	procs *procTable
	// respObjects enables the response-serialization offload (Sec. III-A:
	// "this can be implemented similarly in our design"): the host writes
	// response *objects* into the shared region and the DPU serializes
	// them for the xRPC client.
	respObjects bool
	// sgPayloadMin > 0 enables scatter-gather framing on object responses:
	// top-level singular string/bytes payloads of at least this many bytes
	// travel in dedicated 8-aligned segments of the response slot, which the
	// block's post gathers straight from the handler's message, and the
	// object references them by offset, instead of spilling a copy through
	// the object arena. Only effective with respObjects.
	sgPayloadMin int
	// tracer resolves propagated trace IDs (Request.Trace) and records a
	// host.handler span around every traced dispatch.
	tracer *trace.Tracer
	// builders pools the response builders dispatch hands out (respBuilder).
	builders sync.Pool

	requests       atomic.Uint64
	responseBytes  atomic.Uint64
	responseMsgs   atomic.Uint64
	handlerErrors  atomic.Uint64
	handlerPanics  atomic.Uint64
	unknownMethods atomic.Uint64
}

// NewHostServer builds the host side from the application's ADT table and
// service implementations (every service in the table must be implemented).
// From cfg it reads OffloadResponseSerialization, SGPayloadMin and Tracer.
func NewHostServer(table *adt.Table, impls map[string]Impl, cfg DeployConfig) (*HostServer, error) {
	procs, err := buildProcTable(table, impls, true)
	if err != nil {
		return nil, err
	}
	h := &HostServer{
		procs:        procs,
		respObjects:  cfg.OffloadResponseSerialization,
		sgPayloadMin: cfg.SGPayloadMin,
		tracer:       cfg.Tracer,
	}
	h.builders.New = func() any { return newRespBuilder(&h.builders) }
	return h, nil
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
	rb := h.builders.Get().(*respBuilder)
	rb.resp = resp
	if !h.respObjects {
		// Default mode, as in the paper: response serialization stays on
		// the host; the bytes are written directly into the response block
		// and the DPU forwards them to the xRPC client untouched.
		size := resp.Size()
		h.responseBytes.Add(uint64(size))
		return rpcrdma.ResponseSpec{Status: 0, Size: size, Build: rb.build}
	}
	// Response-serialization offload: build the response *object* in the
	// shared region; the DPU turns it into protobuf bytes.
	size, err := objconv.MeasureMessage(e.out, resp)
	if err != nil {
		rb.release()
		h.handlerErrors.Add(1)
		return rpcrdma.ResponseSpec{Status: uint16(StatusInternal), Err: true}
	}
	h.responseBytes.Add(uint64(size))
	rb.lay = e.out
	// SG framing is decided here, at spec time: the spec is copied by value
	// into the response pipeline before Build runs, and Size must already
	// cover the table and segment area.
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
				rb.sgFields = append(rb.sgFields, f)
				segBytes += alignUp8(n)
				// MeasureMessage counted this payload as an arena spill;
				// as a segment it leaves the object area.
				objSize -= n
			}
		}
	}
	if len(rb.sgFields) == 0 {
		return rpcrdma.ResponseSpec{Status: 0, Object: true, Size: size, Build: rb.build}
	}
	// SG slot layout: [SG table][object area][payload segments]. Each
	// segment is the handler's bytes by reference, gathered by the block's
	// post; its table entry is slot-relative, so both are fixed here.
	rb.tbl = rpcrdma.SGTableSize(len(rb.sgFields))
	rb.segOff = rb.tbl + alignUp8(objSize)
	cur := rb.segOff
	for _, f := range rb.sgFields {
		data := resp.Bytes(f.Name)
		rb.segs = append(rb.segs, rpcrdma.Segment{Off: cur, Src: data})
		rb.descs = append(rb.descs, rpcrdma.SGDesc{
			Field: uint32(f.Number), Off: uint32(cur), Len: uint32(len(data))})
		cur += alignUp8(len(data))
	}
	rb.total = cur
	return rpcrdma.ResponseSpec{
		Status:  0,
		Object:  true,
		Size:    rb.total,
		SG:      true,
		SGSegs:  len(rb.sgFields),
		SGBytes: segBytes,
		Build:   rb.build,
		Gather:  rb.segs,
	}
}

// respBuilder writes one handler response into its reserved slot: marshalled
// protobuf (lay == nil), an object graph, or an object graph referencing
// scatter-gather segments (sgFields non-empty), which the block's post
// gathers from the handler's message. Builders are pooled per host server
// with their method values bound once, so a response spec costs no
// allocation. dispatch fills one in; the spec's Build, which runs exactly
// once (on the poller or a duplex worker), returns it to the pool. A spec
// whose Build never runs (replaced by a refusal, or a broken connection)
// leaves its builder to the GC.
type respBuilder struct {
	pool *sync.Pool
	resp *protomsg.Message
	lay  *abi.Layout
	// SG framing: the payload fields sent as segments, the segments the
	// spec hands the poller to gather (read at reserve, before Build), their
	// descriptors, and the slot layout [table][object area][segments].
	sgFields           []*protodesc.Field
	segs               []rpcrdma.Segment
	descs              []rpcrdma.SGDesc
	tbl, segOff, total int
	regionOff          uint64
	bump               arena.Bump
	b                  abi.Builder
	// build and place are rb.Build and rb.placeSegment, bound when the
	// pool made the builder.
	build func(dst []byte, regionOff uint64) (uint32, int, error)
	place objconv.StrPlacer
}

func newRespBuilder(pool *sync.Pool) *respBuilder {
	rb := &respBuilder{pool: pool}
	rb.build, rb.place = rb.Build, rb.placeSegment
	return rb
}

// Build is the response spec's Build: it writes the response into dst (the
// slot at region offset regionOff) and returns the builder to its pool.
func (rb *respBuilder) Build(dst []byte, regionOff uint64) (uint32, int, error) {
	root, used, err := rb.buildInto(dst, regionOff)
	rb.release()
	return root, used, err
}

func (rb *respBuilder) buildInto(dst []byte, regionOff uint64) (uint32, int, error) {
	if rb.lay == nil {
		out := rb.resp.Marshal(dst[:0])
		return 0, len(out), nil
	}
	if len(rb.sgFields) == 0 {
		rb.bump.Rebind(dst)
		rb.b.Reset(&rb.bump, regionOff)
		obj, err := objconv.ToArena(&rb.b, rb.lay, rb.resp)
		if err != nil {
			return 0, 0, err
		}
		return uint32(obj.Off() - regionOff), rb.b.Used(), nil
	}
	// The payloads are holes the block's post gathers (the spec's Gather):
	// only each segment's alignment pad is written, zeroed so reserved-slot
	// garbage never rides the wire. Then build the object referencing the
	// segments.
	for _, g := range rb.segs {
		end := g.Off + len(g.Src)
		clear(dst[end : g.Off+alignUp8(len(g.Src))])
	}
	rb.regionOff = regionOff
	rb.bump.Rebind(dst[rb.tbl:rb.segOff])
	rb.b.Reset(&rb.bump, regionOff+uint64(rb.tbl))
	obj, err := objconv.ToArenaPlaced(&rb.b, rb.lay, rb.resp, rb.place)
	if err != nil {
		return 0, 0, err
	}
	rpcrdma.PutSGTable(dst[:rb.tbl], rb.descs)
	return uint32(obj.Off() - regionOff), rb.total, nil
}

// placeSegment is the object build's StrPlacer: a field placed as a segment
// is referenced at its segment's region offset.
func (rb *respBuilder) placeSegment(f *protodesc.Field, _ []byte) (uint64, bool) {
	for i, g := range rb.sgFields {
		if g == f {
			return rb.regionOff + uint64(rb.descs[i].Off), true
		}
	}
	return 0, false
}

// release drops the builder's references and returns it to its pool.
func (rb *respBuilder) release() {
	rb.resp, rb.lay = nil, nil
	clear(rb.segs) // the block's holes keep the payloads until their post
	rb.sgFields, rb.segs, rb.descs = rb.sgFields[:0], rb.segs[:0], rb.descs[:0]
	rb.bump.Rebind(nil)
	rb.pool.Put(rb)
}

// Status codes shared with the xRPC layer.
const (
	StatusUnimplemented   = 12
	StatusInvalidArgument = 3
	StatusInternal        = 13
)
