package rpcrdma

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dpurpc/internal/arena"
	"dpurpc/internal/fault"
	"dpurpc/internal/rdma"
	"dpurpc/internal/trace"
)

// idDeadline is one in-flight request's deadline (FIFO-ordered: a single
// RequestTimeout means send order is expiry order). gen pins the entry to
// one tenancy of the ID so a stale entry cannot reap a recycled ID.
type idDeadline struct {
	id  uint16
	gen uint32
	at  int64
}

// pendingFail is a locally-failed request awaiting continuation dispatch.
type pendingFail struct {
	cont func(Response)
	resp Response
}

// Errors returned by the client.
var (
	ErrTooLargeForBuffer = errors.New("rpcrdma: message larger than send buffer")
	ErrConnBroken        = errors.New("rpcrdma: connection broken")
	// ErrSendBufferFull is returned by Reserve when the send arena stayed
	// exhausted through the bounded completion-drain wait (SendFullWait).
	// It is always wrapped together with arena.ErrOutOfMemory so pipelined
	// owners' backpressure checks (errors.Is against either) keep working.
	ErrSendBufferFull = errors.New("rpcrdma: send buffer full")
	// ErrRequestTimeout is the LocalErr of a request reaped at its
	// RequestTimeout deadline.
	ErrRequestTimeout = errors.New("rpcrdma: request timed out")
	// ErrSeqGap is the connection failure raised when a receiver observes a
	// block-sequence discontinuity — the footprint of a lost block, which
	// would otherwise desynchronize the deterministic ID replay of
	// Sec. IV-D and silently misdeliver responses.
	ErrSeqGap = errors.New("rpcrdma: block sequence gap (lost block)")
	// ErrDrainTimeout is returned by the graceful-drain paths when in-flight
	// work did not resolve within the allowed time.
	ErrDrainTimeout = errors.New("rpcrdma: drain timed out")
)

// Status codes stamped on locally-generated failure responses
// (Response.LocalErr != nil). They mirror the equivalent xrpc/gRPC codes —
// rpcrdma deliberately does not import xrpc — so transport-level failures
// keep their meaning when forwarded to RPC callers (and the retry layer
// treats them as retryable).
const (
	// StatusDeadlineExceeded marks a request reaped at RequestTimeout.
	StatusDeadlineExceeded uint16 = 4
	// StatusUnavailable marks a request failed by connection loss.
	StatusUnavailable uint16 = 14
)

// Response is delivered to a request's continuation. Payload aliases the
// receive buffer and is only valid during the continuation (the block is
// acknowledged — and its remote slot becomes reusable — afterwards).
type Response struct {
	// Status is the application status code (0 = OK).
	Status uint16
	// Err reports the server-side error flag.
	Err bool
	// Object reports that the payload carries a shared-region object graph
	// (response-serialization offload) rather than opaque bytes.
	Object bool
	// SG reports scatter-gather framing: the payload begins with a
	// validated descriptor table (ParseSGTable) and the object area
	// follows it at SGTableSize(count).
	SG bool
	// Payload is the zero-copy view of the response payload.
	Payload []byte
	// RegionOff is the region offset of Payload[0] in the response
	// direction's shared address space.
	RegionOff uint64
	// Root is the root-object offset relative to Payload[0].
	Root uint32
	// LocalErr is non-nil when this response was generated locally by the
	// failure machinery rather than received from the server: the request
	// timed out (ErrRequestTimeout) or the connection broke with the
	// request in flight (ErrConnBroken). Payload is always empty for such
	// responses, and Status carries the matching transport code
	// (StatusDeadlineExceeded / StatusUnavailable).
	LocalErr error
}

// CallSpec describes one request to enqueue.
type CallSpec struct {
	// Method is the procedure ID.
	Method uint16
	// Size is the payload space to reserve (exact or an upper bound; the
	// deserialization layer computes it exactly with its planned scan).
	Size int
	// Build writes the payload into dst (len(dst) == Size, zeroed), whose
	// first byte sits at region offset regionOff in the request
	// direction's shared address space. It returns the root-object offset
	// relative to dst[0] and the bytes actually used (<= Size). A nil
	// Build sends Size zero bytes with root 0.
	Build func(dst []byte, regionOff uint64) (root uint32, used int, err error)
	// OnResponse is the continuation invoked from the event loop
	// (Sec. III-D) when the response arrives.
	OnResponse func(Response)
	// Trace, when non-nil, is the trace handle this request's ID should
	// carry to the server (see Config.Tracer).
	Trace *trace.Active
	// SG marks the payload as scatter-gather framed: it begins with a
	// descriptor table (see PutSGTable) and carries bulk payload in
	// dedicated segments. SGSegs/SGBytes describe the segments for the
	// endpoint counters.
	SG      bool
	SGSegs  int
	SGBytes int
}

// block is a request block under construction or awaiting send/ack. Blocks
// are recycled through ClientConn.freeBlocks (see newBlock / recycleBlock), so
// a block and its four parallel slices are allocated once per slot of
// in-flight depth, not once per block sent.
type block struct {
	off      uint64 // SBuf offset (== remote RBuf offset, mirrored)
	buf      []byte // SBuf slice, cap = allocated size
	used     int
	pending  int // reserved slots whose payload is still being built
	conts    []func(Response)
	times    []int64         // enqueue timestamps, parallel to conts (instrumentation)
	trs      []*trace.Active // trace handles, parallel to conts (nil when untraced)
	seq      uint32          // assigned at send
	ids      []uint16
	sealedAt int64 // when the block entered the send queue (deadline reaping)
	firstAt  int64 // when the first message was reserved (commit coalescing)
	// res holds each slot's Reservation, reused by the block's later
	// tenants: a reservation is spent once committed or cancelled, before
	// its block can be recycled or its slot reserved again.
	res []*Reservation
}

// reservation returns the Reservation storage of slot idx.
func (b *block) reservation(idx int) *Reservation {
	if idx == len(b.res) {
		b.res = append(b.res, new(Reservation))
	}
	return b.res[idx]
}

// flushReason classifies why a block sealed; each maps to one Counters
// field so the batching experiments can see where doorbells came from.
type flushReason uint8

const (
	flushExplicit flushReason = iota // Flush/Drain, or every-pass flush at CommitBatch <= 1
	flushFull                        // block hit BlockSize (or an oversized message)
	flushBatch                       // batch reached CommitBatch messages
	flushTimer                       // CommitFlushTimeout expired on a partial batch
)

func (ct *Counters) countFlush(reason flushReason) {
	switch reason {
	case flushFull:
		ct.FlushFull++
	case flushBatch:
		ct.FlushBatch++
	case flushTimer:
		ct.FlushTimer++
	default:
		ct.FlushExplicit++
	}
}

// ClientConn is the RPC-over-RDMA client endpoint — the role the DPU plays
// (Sec. III). One poller (goroutine) owns one ClientConn; none of its
// methods are safe for concurrent use.
type ClientConn struct {
	cfg    Config
	qp     *rdma.QP
	sendCQ *rdma.CQ
	recvCQ *rdma.CQ
	sbuf   []byte
	rbuf   *rdma.MR
	alloc  *arena.Allocator

	pool    *idPool
	credits int
	seq     uint32

	cur       *block
	sendQ     []*block
	unacked   []*block // FIFO of sent, not-yet-acknowledged blocks
	conts     []func(Response)
	started   []int64  // per-ID enqueue timestamps (latency instrumentation)
	freeIDs   []uint16 // IDs to return to the pool at the next send
	ackBlocks uint16   // response blocks processed since the last send

	// freeBlocks is the owner's free list of block structs: filled where a
	// block's send-buffer memory is freed (acknowledgment, deadline reap of an
	// unsent block, a faulted ack-only post), drained by takeBlock. ready is
	// handleResponseBlock's per-block dispatch list, kept for its capacity.
	freeBlocks []*block
	ready      []delivered

	// traceTab is the out-of-band trace-ID table shared with the peer
	// ServerConn, indexed by request ID (see Connect); nil when neither
	// side configured a Tracer.
	traceTab []atomic.Uint64

	// expectSeq is the next response-block sequence number; a mismatch
	// means a block was lost in flight (ErrSeqGap, connection-fatal — the
	// deterministic ID replay cannot survive a gap).
	expectSeq uint32
	// injector is this side's outbound fault injector (nil when disabled).
	injector *fault.Injector
	// Deadline machinery, active only when cfg.RequestTimeout > 0:
	// deadlines is the FIFO of in-flight request deadlines (monotonic — a
	// single timeout value means send order is deadline order); idGen
	// versions each request ID so a deadline entry outliving its request
	// cannot reap the ID's next tenant; timedOut parks reaped IDs until
	// their (possibly never-arriving) late response retires them.
	deadlines []idDeadline
	idGen     []uint32
	timedOut  map[uint16]struct{}
	// pendingFails queues locally-failed requests (timeouts, reaped queued
	// blocks) for dispatch at a safe point of the event loop, keeping
	// trySend and the reaper free of reentrant continuations.
	pendingFails []pendingFail
	// reclaiming guards the arena-exhaustion drain wait against reentry.
	reclaiming bool

	outstanding int
	// broken is the sticky connection error: fail() is its only writer and
	// runs on the owner goroutine, which reads the field bare. brokenMirror
	// republishes it for cross-goroutine readers (Broken) — debug gauges,
	// harnesses, and the reconnect monitor.
	broken       error
	brokenMirror atomic.Pointer[error]
	// inDispatch is true while continuations for one response block run
	// (reclaimBlock must not reenter the event loop then).
	inDispatch bool

	// Flight recorder (Config.FlightRecorder > 0): fr is the black-box
	// event ring, dumpsLeft rate-limits automatic dumps per connection so a
	// flapping link cannot flood the sink, lastDump retains the most recent
	// dump for cross-goroutine retrieval.
	fr        *FlightRecorder
	dumpsLeft int
	lastDump  atomic.Pointer[FlightDump]
	// gauges are atomic occupancy mirrors refreshed once per Progress pass
	// (the connection state itself is single-owner and must not be read
	// cross-goroutine).
	gauges ConnGauges

	// Counters instrument the endpoint.
	Counters Counters

	cqes []rdma.CQE
}

// delivered is one response of an inbound block, parsed and waiting for the
// block's bookkeeping to finish before its continuation runs.
type delivered struct {
	cont func(Response)
	resp Response
}

// ConnGauges are atomic occupancy mirrors of one ClientConn, refreshed by
// its owner during Progress so cross-goroutine samplers (the resource-gauge
// poller behind /gauges) can read send-arena occupancy and queue depths
// without touching the single-owner connection state.
type ConnGauges struct {
	ArenaInUse    atomic.Uint64 // send-arena bytes in use (incl. SG segments)
	ArenaSize     atomic.Uint64 // send-arena capacity
	SendQueued    atomic.Int64  // sealed blocks waiting for credits/IDs
	PartialMsgs   atomic.Int64  // messages in the open partial commit batch
	Unacked       atomic.Int64  // sent blocks awaiting acknowledgment
	Outstanding   atomic.Int64  // requests awaiting responses
	Credits       atomic.Int64  // current send credits
	CreditStalls  atomic.Uint64 // mirrors Counters.CreditStalls
	AckOnlyBlocks atomic.Uint64 // mirrors Counters.AckOnlyBlocks
	AcksPending   atomic.Int64  // response blocks processed but not yet acknowledged
	// Wakes mirrors Counters.WakeCQE/WakeKick/WakeTimer as they are counted.
	Wakes WakeGauges
}

// Gauges returns the connection's atomic occupancy mirrors. Safe to read
// from any goroutine; values refresh once per Progress pass.
func (c *ClientConn) Gauges() *ConnGauges { return &c.gauges }

// refreshGauges mirrors owner-private occupancy into the atomics.
func (c *ClientConn) refreshGauges() {
	c.gauges.ArenaInUse.Store(c.alloc.InUse())
	c.gauges.ArenaSize.Store(c.alloc.Size())
	c.gauges.SendQueued.Store(int64(len(c.sendQ)))
	partial := 0
	if c.cur != nil {
		partial = len(c.cur.conts)
	}
	c.gauges.PartialMsgs.Store(int64(partial))
	c.gauges.Unacked.Store(int64(len(c.unacked)))
	c.gauges.Outstanding.Store(int64(c.outstanding))
	c.gauges.Credits.Store(int64(c.credits))
	c.gauges.CreditStalls.Store(c.Counters.CreditStalls)
	c.gauges.AckOnlyBlocks.Store(c.Counters.AckOnlyBlocks)
	c.gauges.AcksPending.Store(int64(c.ackBlocks))
}

func newClientConn(cfg Config, qp *rdma.QP, sendCQ, recvCQ *rdma.CQ, sbuf []byte, rbuf *rdma.MR, recvPosts int) (*ClientConn, error) {
	c := &ClientConn{
		cfg: cfg, qp: qp, sendCQ: sendCQ, recvCQ: recvCQ,
		sbuf: sbuf, rbuf: rbuf,
		alloc:   arena.NewAllocator(uint64(len(sbuf))),
		pool:    newIDPool(),
		credits: cfg.Credits,
		conts:   make([]func(Response), IDPoolSize),
		cqes:    make([]rdma.CQE, 256),
	}
	if cfg.LatencyObserver != nil {
		c.started = make([]int64, IDPoolSize)
	}
	if cfg.RequestTimeout > 0 {
		c.idGen = make([]uint32, IDPoolSize)
		c.timedOut = make(map[uint16]struct{})
	}
	if cfg.FlightRecorder > 0 {
		c.fr = NewFlightRecorder(cfg.FlightLabel, cfg.FlightRecorder)
		c.dumpsLeft = maxFlightDumps
	}
	c.Counters.MinCreditsSeen = uint64(cfg.Credits)
	// Reserve offset 0: region offsets must never be 0 (NullRef), and the
	// guard also keeps bucket 0 unambiguous.
	if _, err := c.alloc.Alloc(BlockAlign, BlockAlign); err != nil {
		return nil, err
	}
	for i := 0; i < recvPosts; i++ {
		if err := qp.PostRecv(rdma.RecvWR{WRID: uint64(i)}); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Credits returns the current send-credit count.
func (c *ClientConn) Credits() int { return c.credits }

// Outstanding returns the number of requests awaiting responses.
func (c *ClientConn) Outstanding() int { return c.outstanding }

// Broken returns the sticky connection error, if any. Safe from any
// goroutine: it reads an atomic mirror of the owner-written field.
func (c *ClientConn) Broken() error {
	if e := c.brokenMirror.Load(); e != nil {
		return *e
	}
	return nil
}

// newBlock allocates a block sized for at least firstSlot payload-slot
// bytes.
func (c *ClientConn) newBlock(firstSlot int) (*block, error) {
	size := c.cfg.BlockSize
	if need := PreambleSize + firstSlot; need > size {
		// Oversized message: a dedicated single-message block (Sec. IV).
		size = need
	}
	off, err := c.alloc.Alloc(uint64(size), BlockAlign)
	if err != nil {
		return nil, err
	}
	return c.takeBlock(off, size), nil
}

// takeBlock returns an empty block over size bytes of send buffer at off,
// reusing a recycled struct (and its slices' capacity) when one is free.
func (c *ClientConn) takeBlock(off uint64, size int) *block {
	var b *block
	if n := len(c.freeBlocks); n > 0 {
		b = c.freeBlocks[n-1]
		c.freeBlocks = c.freeBlocks[:n-1]
	} else {
		b = &block{}
	}
	b.off, b.buf, b.used = off, c.sbuf[off:off+uint64(size)], PreambleSize
	return b
}

// recycleBlock returns a block whose send-buffer memory has just been freed
// to the free list. The pointer slices are cleared so a parked block pins no
// continuation or trace handle, and so its next tenant can never observe the
// previous one's; the scalar fields are reset for the same reason.
func (c *ClientConn) recycleBlock(b *block) {
	clear(b.conts)
	clear(b.trs)
	*b = block{conts: b.conts[:0], times: b.times[:0], trs: b.trs[:0], ids: b.ids[:0], res: b.res}
	c.freeBlocks = append(c.freeBlocks, b)
}

// reclaimBlock recovers from send-arena exhaustion. Under load the arena is
// full only because acknowledgments are in flight — outstanding completions
// free a block microseconds later — so hard-failing the reservation wastes
// the request. First transmit anything queued, then (when allowed) drain
// response completions for up to SendFullWait, retrying the allocation as
// acknowledgments land. The wait is skipped inside a response dispatch or a
// nested reclaim, where draining would reenter the event loop. If the arena
// stays full, the typed ErrSendBufferFull is returned wrapped with
// arena.ErrOutOfMemory so pipelined owners' backpressure checks
// (errors.Is on either sentinel) behave exactly as before.
func (c *ClientConn) reclaimBlock(slot int) (*block, error) {
	c.trySend()
	if b, err := c.newBlock(slot); err == nil {
		return b, nil
	}
	if wait := c.cfg.SendFullWait; wait > 0 && !c.inDispatch && !c.reclaiming {
		c.reclaiming = true
		defer func() { c.reclaiming = false }()
		deadline := time.Now().Add(wait)
		for {
			remain := time.Until(deadline)
			if remain <= 0 || c.broken != nil {
				break
			}
			n, why := c.recvCQ.Wait(c.cqes, remain)
			countWake(&c.Counters, &c.gauges.Wakes, why)
			if n == 0 {
				continue
			}
			if _, err := c.processRecvCQEs(c.cqes[:n]); err != nil {
				return nil, err
			}
			c.trySend()
			if b, err := c.newBlock(slot); err == nil {
				c.Counters.SendFullRecoveries++
				return b, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: %w", ErrSendBufferFull, arena.ErrOutOfMemory)
}

// Enqueue buffers one request into the current block, sealing and queueing
// full blocks (the Nagle-style aggregation of Sec. IV). The request is not
// transmitted until Progress or Flush runs. It is a thin wrapper over the
// Reserve/Commit pipeline API: reserve the slot, build the payload in
// place, commit — all synchronously on the owning goroutine.
func (c *ClientConn) Enqueue(spec CallSpec) error {
	r, err := c.Reserve(spec.Method, spec.Size, spec.OnResponse)
	if err != nil {
		return err
	}
	c.AttachTrace(r, spec.Trace)
	r.SG, r.SGSegs, r.SGBytes = spec.SG, spec.SGSegs, spec.SGBytes
	var root uint32
	used := spec.Size
	if spec.Build != nil {
		if root, used, err = spec.Build(r.Dst, r.RegionOff); err != nil {
			c.Cancel(r)
			return err
		}
	}
	if err := c.Commit(r, root, used); err != nil {
		c.Cancel(r)
		return err
	}
	return nil
}

// AttachTrace associates a trace handle with a reservation. When the block
// transmits, the trace ID is published in the shared out-of-band table
// under the request ID the slot is assigned (deterministic on both sides,
// Sec. IV-D), and the server resolves it into Request.Trace. A nil handle,
// an untraced connection, or both make it a no-op. Must be called by the
// connection's owner before the block is sent (i.e. right after Reserve).
func (c *ClientConn) AttachTrace(r *Reservation, a *trace.Active) {
	if a == nil || c.traceTab == nil || r.b.trs == nil {
		return
	}
	r.b.trs[r.idx] = a
}

// CancelledMethod is the poison procedure ID written into a reserved slot
// cancelled after later reservations fixed its stride in the block. No real
// procedure uses it (procedure IDs are dense from 0), so the server answers
// with an error response that a no-op continuation absorbs.
const CancelledMethod uint16 = 0xFFFF

// Reservation is a slot in an outgoing request block handed out by Reserve
// and finished by Commit or Cancel. Between the two, Dst may be filled from
// any goroutine (it is a disjoint slice of the send buffer); every other
// interaction with the reservation must come from the connection's owner.
type Reservation struct {
	// Dst is the reserved payload slot (len == the reserved size). Reused
	// blocks carry stale bytes: the builder is responsible for every byte
	// it declares used (arena.Bump zeroes its allocations).
	Dst []byte
	// RegionOff is the region offset of Dst[0] in the request direction's
	// shared address space.
	RegionOff uint64
	// SG, set by the owner before Commit, stamps the scatter-gather flag
	// on the message header: the payload starts with a descriptor table
	// and carries bulk bytes in dedicated segments. SGSegs/SGBytes feed
	// the endpoint counters.
	SG      bool
	SGSegs  int
	SGBytes int

	b      *block
	idx    int // index into b.conts
	hdrPos int
	size   int
	method uint16
	done   bool
}

// MaxPayload returns the largest payload size Reserve can ever place: one
// slot filling the whole send buffer behind the NullRef guard at offset 0
// and the block preamble.
func (c *ClientConn) MaxPayload() int {
	return (len(c.sbuf) - BlockAlign - PreambleSize - HeaderSize) &^ 7
}

// Reserve claims the next slot of the current block for a request of the
// given payload size, registering its continuation. The slot's header is
// not written and the block cannot be transmitted until the reservation is
// committed or cancelled — this is the first stage of the reserve → build →
// commit pipeline: the owner reserves, any goroutine builds into Dst, the
// owner commits. Reservations are laid out in call order, so the block
// bytes (and the deterministic request-ID assignment of Sec. IV-D) are
// identical to the serial Enqueue path.
func (c *ClientConn) Reserve(method uint16, size int, onResponse func(Response)) (*Reservation, error) {
	if c.broken != nil {
		return nil, c.broken
	}
	slot := slotSize(size)
	if size > c.MaxPayload() {
		return nil, fmt.Errorf("%w: need %d bytes", ErrTooLargeForBuffer, slot)
	}
	if c.cur != nil && c.cur.used+slot > len(c.cur.buf) {
		c.seal(flushFull)
	}
	if c.cur == nil {
		b, err := c.newBlock(slot)
		if err != nil {
			if b, err = c.reclaimBlock(slot); err != nil {
				return nil, err
			}
		}
		c.cur = b
	}
	b := c.cur
	if c.cfg.CommitBatch > 1 && len(b.conts) == 0 {
		// First message of a batch: start its CommitFlushTimeout clock.
		b.firstAt = nowNS()
	}
	hdrPos := b.used
	b.used = hdrPos + HeaderSize + alignUp(size)
	b.pending++
	b.conts = append(b.conts, onResponse)
	if c.cfg.LatencyObserver != nil {
		b.times = append(b.times, nowNS())
	}
	if c.traceTab != nil {
		b.trs = append(b.trs, nil)
	}
	c.outstanding++
	c.fr.Record(FlightReserve, int64(size), int64(len(b.conts)-1))
	r := b.reservation(len(b.conts) - 1)
	*r = Reservation{
		Dst:       b.buf[hdrPos+HeaderSize : hdrPos+HeaderSize+size],
		RegionOff: b.off + uint64(hdrPos+HeaderSize),
		b:         b,
		idx:       len(b.conts) - 1,
		hdrPos:    hdrPos,
		size:      size,
		method:    method,
	}
	return r, nil
}

// Commit finishes a reservation: it writes the message header and releases
// the slot's hold on block transmission. used is the payload bytes actually
// built (<= the reserved size); the final slot of a block may shrink, an
// interior slot keeps its stride with zero padding. Must be called by the
// connection's owner.
func (c *ClientConn) Commit(r *Reservation, root uint32, used int) error {
	if r.done {
		return errors.New("rpcrdma: reservation already committed or cancelled")
	}
	if c.broken != nil {
		return c.broken
	}
	if used > r.size {
		return fmt.Errorf("%w: build used %d > reserved %d", ErrPayloadSize, used, r.size)
	}
	b := r.b
	payloadLen := used
	if r.hdrPos+HeaderSize+alignUp(r.size) == b.used {
		// Tail slot: shrink to actual use, exactly like serial Enqueue.
		b.used = r.hdrPos + HeaderSize + alignUp(used)
	} else if used < r.size {
		// Interior slot: the stride is fixed by later reservations, so the
		// declared length keeps the receiver's block walk aligned; zero the
		// tail so the padding carries no stale bytes.
		payloadLen = r.size
		clear(b.buf[r.hdrPos+HeaderSize+used : r.hdrPos+HeaderSize+r.size])
	}
	putHeader(b.buf[r.hdrPos:], header{
		payloadLen: uint32(payloadLen),
		rootOff:    root,
		method:     r.method,
		sg:         r.SG,
	})
	if r.SG {
		c.Counters.SGMessagesSent++
		c.Counters.SGSegmentsSent += uint64(r.SGSegs)
		c.Counters.SGBytesSent += uint64(r.SGBytes)
	}
	r.done = true
	b.pending--
	c.fr.Record(FlightCommit, int64(used), int64(r.method))
	if b == c.cur && b.pending == 0 && b.used >= c.cfg.BlockSize {
		c.seal(flushFull)
	}
	return nil
}

// Cancel abandons a reservation. A tail reservation of the current block is
// rolled back entirely; an interior (or already-sealed) slot cannot move —
// it is poisoned with CancelledMethod, a zeroed payload, and a no-op
// continuation, and the server's error response retires its request ID.
// Must be called by the connection's owner.
func (c *ClientConn) Cancel(r *Reservation) {
	if r.done || c.broken != nil {
		return
	}
	r.done = true
	b := r.b
	b.pending--
	c.fr.Record(FlightCancel, int64(r.size), 0)
	if b == c.cur && r.idx == len(b.conts)-1 &&
		r.hdrPos+HeaderSize+alignUp(r.size) == b.used {
		b.used = r.hdrPos
		b.conts[r.idx] = nil
		b.conts = b.conts[:r.idx]
		if b.times != nil {
			b.times = b.times[:r.idx]
		}
		if b.trs != nil {
			b.trs[r.idx] = nil
			b.trs = b.trs[:r.idx]
		}
		c.outstanding--
		return
	}
	clear(b.buf[r.hdrPos+HeaderSize : r.hdrPos+HeaderSize+r.size])
	putHeader(b.buf[r.hdrPos:], header{
		payloadLen: uint32(r.size),
		method:     CancelledMethod,
	})
	b.conts[r.idx] = func(Response) {}
}

// seal moves the current block to the send queue.
func (c *ClientConn) seal(reason flushReason) {
	if c.cur == nil || len(c.cur.conts) == 0 {
		return
	}
	if c.cur.used < c.cfg.BlockSize {
		c.Counters.PartialFlushes++
	}
	c.Counters.countFlush(reason)
	c.fr.Record(FlightSeal, int64(reason), int64(len(c.cur.conts)))
	if c.cfg.RequestTimeout > 0 {
		c.cur.sealedAt = nowNS()
	}
	c.sendQ = append(c.sendQ, c.cur)
	c.cur = nil
}

// maybeSeal applies the commit-coalescing policy (Config.CommitBatch) to
// the current partial block: seal — one doorbell for the whole run — once
// it holds CommitBatch messages, or once its oldest message has waited out
// CommitFlushTimeout. CommitBatch <= 1 seals every pass, the pre-batching
// behavior, so low-load p99 is unchanged by default. A block with a slot
// still building (reserved, not yet committed) is never sealed here — the
// rule ServerConn.flushPartial applies to responses — so the pass after its
// last commit decides, by the same policy whoever builds the slots.
func (c *ClientConn) maybeSeal() {
	if c.cur == nil || len(c.cur.conts) == 0 || c.cur.pending > 0 {
		return
	}
	if c.cfg.CommitBatch <= 1 {
		c.seal(flushExplicit)
		return
	}
	if len(c.cur.conts) >= c.cfg.CommitBatch {
		c.seal(flushBatch)
		return
	}
	if nowNS()-c.cur.firstAt >= c.cfg.CommitFlushTimeout.Nanoseconds() {
		c.seal(flushTimer)
	}
}

// waitBudget bounds the idle blocking wait so a partially-filled commit
// batch seals near its CommitFlushTimeout deadline instead of sleeping out
// the full WaitTimeout. A block with a slot still building is ignored: it
// cannot seal before its commit, which the owner makes on a later pass. May
// return <= 0, which degrades the wait to a non-blocking poll.
func (c *ClientConn) waitBudget() time.Duration {
	w := c.cfg.WaitTimeout
	if c.cfg.CommitBatch > 1 && c.cur != nil &&
		len(c.cur.conts) > 0 && c.cur.pending == 0 {
		remain := time.Duration(c.cur.firstAt +
			c.cfg.CommitFlushTimeout.Nanoseconds() - nowNS())
		if remain < w {
			w = remain
		}
	}
	return w
}

// trySend transmits queued blocks while credits and request IDs allow.
func (c *ClientConn) trySend() {
	for len(c.sendQ) > 0 {
		// Liveness rule (a), see ServerConn.canSend.
		if c.credits == 0 || (c.credits == 1 && c.ackBlocks == 0) {
			c.Counters.CreditStalls++
			c.fr.Record(FlightCreditStall, int64(len(c.sendQ)), 0)
			return
		}
		b := c.sendQ[0]
		if b.pending > 0 {
			// Head-of-line block still has slots under construction by the
			// build workers; transmission order must match reservation order
			// (the deterministic ID replay of Sec. IV-D), so wait.
			c.Counters.PipelineStalls++
			return
		}
		if c.pool.Available()+len(c.freeIDs) < len(b.conts) {
			return // wait for more responses to recycle IDs
		}
		// Flush pending acknowledgments: free IDs first, then allocate the
		// new block's IDs — the exact order the server replays (Sec. IV-D).
		for _, id := range c.freeIDs {
			c.pool.Free(id)
		}
		c.freeIDs = c.freeIDs[:0]
		ack := c.ackBlocks
		c.ackBlocks = 0

		b.ids = b.ids[:0]
		for i := range b.conts {
			id, err := c.pool.Alloc()
			if err != nil {
				c.fail(err) // cannot happen: availability checked above
				return
			}
			b.ids = append(b.ids, id)
			c.conts[id] = b.conts[i]
			if c.started != nil {
				c.started[id] = b.times[i]
			}
			if b.trs != nil {
				// Publish (or clear a stale) trace ID under the request ID
				// the server is about to replay.
				c.traceTab[id].Store(b.trs[i].ID())
			}
		}
		b.seq = c.seq
		putPreamble(b.buf, preamble{
			msgCount:  uint16(len(b.conts)),
			ackBlocks: ack,
			blockLen:  uint32(b.used),
			seq:       b.seq,
		})
		var dbStart int64
		if b.trs != nil {
			dbStart = nowNS()
		}
		if err := c.qp.PostWriteImm(uint64(b.seq), b.buf[:b.used], b.off, uint32(b.off/BlockAlign)); err != nil {
			if errors.Is(err, rdma.ErrOpFault) {
				// The wire rejected the post before any bytes moved: the
				// server never observed it, so rewind the ID allocations
				// (no frees ran since them — Unalloc restores the pool
				// bit-for-bit), restore the unsent acknowledgment counter,
				// and leave the block at the head of the queue. The next
				// event-loop pass retries it with identical IDs; requests
				// that stay stuck are reaped by the deadline machinery.
				for _, id := range b.ids {
					c.conts[id] = nil
				}
				c.pool.Unalloc(len(b.ids))
				c.ackBlocks += ack
				c.Counters.SendFaultRetries++
				c.fr.Record(FlightSendRetry, int64(b.seq), 0)
				return
			}
			c.fail(err)
			return
		}
		if b.trs != nil {
			dbEnd := nowNS()
			for _, a := range b.trs {
				a.Span(trace.StageDoorbell, trace.ProcDPU, 0, dbStart, dbEnd)
			}
		}
		if c.idGen != nil {
			at := nowNS() + c.cfg.RequestTimeout.Nanoseconds()
			for _, id := range b.ids {
				c.idGen[id]++
				c.deadlines = append(c.deadlines, idDeadline{id: id, gen: c.idGen[id], at: at})
			}
		}
		c.seq++
		c.credits--
		if uint64(c.credits) < c.Counters.MinCreditsSeen {
			c.Counters.MinCreditsSeen = uint64(c.credits)
		}
		c.Counters.BlocksSent++
		c.Counters.RequestsSent += uint64(len(b.conts))
		c.Counters.PayloadBytesSent += uint64(b.used)
		c.fr.Record(FlightSend, int64(b.seq), int64(b.used))
		c.unacked = append(c.unacked, b)
		c.sendQ = c.sendQ[0:copy(c.sendQ, c.sendQ[1:])]
	}
}

func (c *ClientConn) fail(err error) {
	if c.broken == nil {
		c.broken = fmt.Errorf("%w: %w", ErrConnBroken, err)
		c.brokenMirror.Store(&c.broken)
		c.fr.Record(FlightBroken, 0, 0)
		c.dumpFlight("connection broken: " + err.Error())
		// Close the QP so the peer observes the failure on its next post
		// (ErrClosed) instead of waiting out its own timeouts, and so
		// waiters on this side's CQs wake immediately.
		c.qp.Close()
	}
}

// maxFlightDumps bounds the black-box dumps one connection will emit, so a
// flapping connection under sustained chaos cannot flood the sink.
const maxFlightDumps = 8

// dumpFlight snapshots the flight recorder and publishes the dump: the last
// one is kept for LastFlightDump, and Config.FlightSink (when set) gets every
// dump up to the per-connection cap. Owner-only; no-op when recording is off.
func (c *ClientConn) dumpFlight(reason string) {
	if c.fr == nil || c.dumpsLeft <= 0 {
		return
	}
	c.dumpsLeft--
	d := c.fr.dump(reason)
	c.lastDump.Store(&d)
	if c.cfg.FlightSink != nil {
		c.cfg.FlightSink(d)
	}
}

// FlightDumpBudget returns the remaining automatic flight-dump budget
// (maxFlightDumps on a fresh connection, 0 when recording is disabled).
// Owner-only.
func (c *ClientConn) FlightDumpBudget() int {
	if c.fr == nil {
		return 0
	}
	return c.dumpsLeft
}

// SetFlightDumpBudget clamps the automatic dump budget. Reconnect adoption
// carries the old connection's remaining budget onto its replacement so a
// flapping endpoint cannot flood the sink by redialing back to a fresh cap.
// Owner-only; no-op when recording is disabled.
func (c *ClientConn) SetFlightDumpBudget(n int) {
	if c.fr == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	if n < c.dumpsLeft {
		c.dumpsLeft = n
	}
}

// LastFlightDump returns the most recent black-box dump, or nil if none has
// fired. Safe from any goroutine.
func (c *ClientConn) LastFlightDump() *FlightDump {
	return c.lastDump.Load()
}

// FlightEvents copies out the flight recorder's retained events (oldest
// first); nil when recording is disabled.
func (c *ClientConn) FlightEvents() []FlightEvent {
	return c.fr.Events()
}

// processRequestBlockAcks frees the count oldest unacknowledged request
// blocks. The counter arrives in response-block preambles: the server
// advances it once every request of a block has been answered (in receive
// order), which is the paper's implicit acknowledgment (a response
// acknowledges its block, Sec. IV-B) made exact so that background handlers
// (Sec. III-D) can keep reading a block after its first response leaves.
func (c *ClientConn) processRequestBlockAcks(count int) error {
	for i := 0; i < count; i++ {
		if len(c.unacked) == 0 {
			err := fmt.Errorf("%w: ack for no outstanding request block", ErrBlockCorrupt)
			c.fail(err)
			return err
		}
		b := c.unacked[0]
		if err := c.alloc.Free(b.off); err != nil {
			c.fail(err)
			return err
		}
		c.credits++
		c.Counters.BlocksAcked++
		c.unacked = c.unacked[0:copy(c.unacked, c.unacked[1:])]
		c.recycleBlock(b)
	}
	return nil
}

// handleResponseBlock processes one inbound response block located by its
// bucket immediate.
func (c *ClientConn) handleResponseBlock(imm uint32, byteLen uint32) error {
	off := uint64(imm) * BlockAlign
	if off+uint64(byteLen) > uint64(c.rbuf.Len()) {
		return fmt.Errorf("%w: bucket %d beyond receive buffer", ErrBlockCorrupt, imm)
	}
	blk := c.rbuf.Bytes()[off : off+uint64(byteLen)]
	p, err := parsePreamble(blk)
	if err != nil {
		return err
	}
	// Reliable connections deliver in order, so the only way to observe a
	// sequence discontinuity is a lost block — which would desynchronize
	// the deterministic ID replay and silently misdeliver every response
	// after it. Fail fast instead.
	if p.seq != c.expectSeq {
		c.fr.Record(FlightSeqGap, int64(p.seq), int64(c.expectSeq))
		return fmt.Errorf("%w: response block seq %d, expected %d", ErrSeqGap, p.seq, c.expectSeq)
	}
	c.expectSeq++
	// The response preamble acknowledges fully-answered request blocks.
	if err := c.processRequestBlockAcks(int(p.ackBlocks)); err != nil {
		return err
	}
	// Dispatch after bookkeeping so continuations can safely re-enqueue. The
	// list is detached from the connection while in use, so a nested call
	// could only ever allocate its own.
	ready := c.ready[:0]
	c.ready = nil
	pos := PreambleSize
	for i := 0; i < int(p.msgCount); i++ {
		if pos+HeaderSize > int(p.blockLen) {
			return fmt.Errorf("%w: header %d beyond block", ErrBlockCorrupt, i)
		}
		h, err := parseHeader(blk[pos:])
		if err != nil {
			return err
		}
		if !h.response {
			return fmt.Errorf("%w: request header in response block", ErrBlockCorrupt)
		}
		end := pos + HeaderSize + int(h.payloadLen)
		if end > int(p.blockLen) {
			return fmt.Errorf("%w: payload beyond block", ErrBlockCorrupt)
		}
		if pos+HeaderSize+alignUp(int(h.payloadLen))+int(h.pad) > int(p.blockLen) {
			return fmt.Errorf("%w: slot pad beyond block", ErrBlockCorrupt)
		}
		if h.sg {
			// A torn or forged descriptor table must never reach a reader:
			// validate before any continuation sees the payload.
			if err := ValidateSGTable(blk[pos+HeaderSize : end]); err != nil {
				return err
			}
			c.Counters.SGMessagesReceived++
		}
		cont := c.conts[h.reqID]
		if cont == nil {
			if _, late := c.timedOut[h.reqID]; late {
				// The request was reaped at its deadline and its caller
				// already saw ErrRequestTimeout; retire the parked ID and
				// drop the payload.
				delete(c.timedOut, h.reqID)
				c.freeIDs = append(c.freeIDs, h.reqID)
				c.Counters.LateResponsesDropped++
				c.fr.Record(FlightLateResp, int64(h.reqID), 0)
				pos = pos + HeaderSize + alignUp(int(h.payloadLen)) + int(h.pad)
				continue
			}
			return fmt.Errorf("%w: response for idle request ID %d", ErrBlockCorrupt, h.reqID)
		}
		c.conts[h.reqID] = nil
		c.outstanding--
		if c.started != nil {
			c.cfg.LatencyObserver(float64(nowNS() - c.started[h.reqID]))
		}
		c.Counters.ResponsesReceived++
		if h.errFlag {
			c.Counters.ErrorsReceived++
		}
		c.freeIDs = append(c.freeIDs, h.reqID)
		ready = append(ready, delivered{cont, Response{
			Status:    h.method,
			Err:       h.errFlag,
			Object:    h.object,
			SG:        h.sg,
			Payload:   blk[pos+HeaderSize : end],
			RegionOff: off + uint64(pos+HeaderSize),
			Root:      h.rootOff,
		}})
		pos = pos + HeaderSize + alignUp(int(h.payloadLen)) + int(h.pad)
	}
	c.Counters.BlocksReceived++
	c.fr.Record(FlightRecvBlock, int64(p.seq), int64(p.msgCount))
	c.inDispatch = true
	for _, d := range ready {
		if d.cont != nil {
			d.cont(d.resp)
		}
	}
	c.inDispatch = false
	clear(ready) // drop the continuations and payload views
	c.ready = ready[:0]
	c.ackBlocks++
	return nil
}

// Progress is the event-loop update function (Sec. III-D): it drains
// completions, dispatches continuations, flushes the partial block, and
// transmits queued blocks. It returns the number of response blocks
// processed.
func (c *ClientConn) Progress() (int, error) {
	if c.broken != nil {
		return 0, c.broken
	}
	// A dead QP (ours closed, or the peer's) can strand in-flight requests
	// silently: the requests posted fine, but the response can never be
	// delivered and an idle connection has nothing left to post that would
	// trip an error. Without this probe such requests sit until the request
	// deadline fires; with it the connection fails on the next poll pass
	// and the in-flight requests abort typed immediately.
	if c.qp.Dead() {
		c.fail(fmt.Errorf("QP dead"))
		return 0, c.broken
	}
	// Drain send completions (local buffer bookkeeping only; block memory
	// is recycled on acknowledgment, not send completion).
	for {
		n := c.sendCQ.Poll(c.cqes)
		for _, e := range c.cqes[:n] {
			if e.Status != rdma.StatusOK {
				c.fail(fmt.Errorf("send completion status %d", e.Status))
			}
		}
		if n < len(c.cqes) {
			break
		}
	}
	// Flush buffered work before polling so freshly enqueued requests hit
	// the wire without waiting out the poll timeout.
	sentBefore := c.Counters.BlocksSent
	c.maybeSeal()
	c.trySend()
	if c.broken != nil {
		return 0, c.broken
	}
	n := c.recvCQ.Poll(c.cqes)
	if n == 0 && !c.cfg.BusyPoll && c.Counters.BlocksSent == sentBefore {
		// Idle: sleep on the completion channel (the poll() path of
		// Sec. III-C), but never past a pending commit-batch deadline. A
		// producer that hands this connection's owner work through another
		// queue rings Wake, which ends the sleep at once; the caller then
		// finds that work on its next pass.
		var why rdma.Wake
		n, why = c.recvCQ.Wait(c.cqes, c.waitBudget())
		countWake(&c.Counters, &c.gauges.Wakes, why)
	}
	events, err := c.processRecvCQEs(c.cqes[:n])
	if err != nil {
		return events, err
	}
	// Reap expired requests and dispatch their (and any other locally
	// queued) failure continuations before flushing, so re-enqueues from
	// those continuations ride this pass.
	if c.cfg.RequestTimeout > 0 {
		c.reapDeadlines()
	}
	c.dispatchLocalFailures()
	// Flush again: continuations may have enqueued follow-up requests, and
	// acknowledgments may have freed credits for queued blocks.
	c.maybeSeal()
	c.trySend()
	// Low-workload path: if response-block acknowledgments are pending but
	// no request traffic will carry them, ship them in an empty block so
	// the server's response credits do not starve (the deadlock-avoidance
	// flush of Sec. IV: partial blocks are still sent by the event loop).
	if c.ackBlocks > 0 && (c.outstanding > 0 || len(c.timedOut) > 0) &&
		len(c.sendQ) == 0 &&
		(c.cur == nil || len(c.cur.conts) == 0) && c.credits > 0 {
		c.sendAckOnly()
	}
	c.refreshGauges()
	return events, c.broken
}

// processRecvCQEs dispatches a batch of receive completions, each an inbound
// response block, reposting one receive WR per block consumed. It returns
// the number of blocks processed; on error the connection is already failed.
func (c *ClientConn) processRecvCQEs(cqes []rdma.CQE) (int, error) {
	events := 0
	for _, e := range cqes {
		if e.Status != rdma.StatusOK {
			c.fail(fmt.Errorf("recv completion status %d", e.Status))
			return events, c.broken
		}
		if err := c.handleResponseBlock(e.ImmData, e.ByteLen); err != nil {
			c.fail(err)
			return events, c.broken
		}
		events++
		if err := c.qp.PostRecv(rdma.RecvWR{}); err != nil {
			c.fail(err)
			return events, c.broken
		}
	}
	return events, nil
}

// reapDeadlines fails every request whose RequestTimeout expired. The
// deadlines FIFO matches send order (a single timeout value makes send order
// expiry order), so the scan stops at the first live entry. Reaped IDs are
// parked in timedOut — not freed — until their late response retires them,
// which keeps the deterministic ID replay of Sec. IV-D aligned even though
// the caller already moved on. Sealed blocks that never reached the wire
// (e.g. a persistently faulting post) are reaped wholesale once they age
// past the timeout; their IDs were rolled back at the failed post, so
// dropping the block is invisible to the replay. Continuations are queued on
// pendingFails, not invoked here.
func (c *ClientConn) reapDeadlines() {
	now := nowNS()
	reaped := 0
	for len(c.deadlines) > 0 && c.deadlines[0].at <= now {
		d := c.deadlines[0]
		c.deadlines = c.deadlines[0:copy(c.deadlines, c.deadlines[1:])]
		if d.gen != c.idGen[d.id] {
			continue // the ID has been retired since; stale entry
		}
		cont := c.conts[d.id]
		if cont == nil {
			continue // the response arrived in time
		}
		c.conts[d.id] = nil
		c.outstanding--
		c.timedOut[d.id] = struct{}{}
		c.Counters.RequestsTimedOut++
		c.fr.Record(FlightTimeout, int64(d.id), 0)
		reaped++
		c.pendingFails = append(c.pendingFails, pendingFail{cont, Response{
			Status: StatusDeadlineExceeded, Err: true, LocalErr: ErrRequestTimeout,
		}})
	}
	for len(c.sendQ) > 0 {
		b := c.sendQ[0]
		if b.pending > 0 || b.sealedAt == 0 ||
			now-b.sealedAt <= c.cfg.RequestTimeout.Nanoseconds() {
			break
		}
		c.sendQ = c.sendQ[0:copy(c.sendQ, c.sendQ[1:])]
		if err := c.alloc.Free(b.off); err != nil {
			c.fail(err)
			return
		}
		c.fr.Record(FlightBlockReap, int64(len(b.conts)), 0)
		for _, cont := range b.conts {
			if cont != nil {
				c.pendingFails = append(c.pendingFails, pendingFail{cont, Response{
					Status: StatusDeadlineExceeded, Err: true, LocalErr: ErrRequestTimeout,
				}})
			}
			c.outstanding--
			c.Counters.RequestsTimedOut++
			reaped++
		}
		c.recycleBlock(b)
	}
	if reaped > 0 {
		c.dumpFlight(fmt.Sprintf("request timeout (%d reaped)", reaped))
	}
}

// dispatchLocalFailures invokes the continuations of locally-failed requests
// (deadline reaps, reaped unsent blocks). It runs at a fixed point of the
// event loop so neither trySend nor the reaper ever reenters user code.
func (c *ClientConn) dispatchLocalFailures() {
	for len(c.pendingFails) > 0 {
		p := c.pendingFails[0]
		c.pendingFails = c.pendingFails[0:copy(c.pendingFails, c.pendingFails[1:])]
		p.cont(p.resp)
	}
}

// sendAckOnly transmits a zero-message block carrying only the preamble
// acknowledgment counter. The server marks it processed on receipt, so it
// is acknowledged by the next response block like any other.
func (c *ClientConn) sendAckOnly() {
	off, err := c.alloc.Alloc(BlockAlign, BlockAlign)
	if err != nil {
		return // no room: a future request block will carry the acks
	}
	b := c.takeBlock(off, BlockAlign)
	for _, id := range c.freeIDs {
		c.pool.Free(id)
	}
	c.freeIDs = c.freeIDs[:0]
	ack := c.ackBlocks
	c.ackBlocks = 0
	b.seq = c.seq
	putPreamble(b.buf, preamble{msgCount: 0, ackBlocks: ack, blockLen: PreambleSize, seq: b.seq})
	if err := c.qp.PostWriteImm(uint64(b.seq), b.buf[:b.used], b.off, uint32(b.off/BlockAlign)); err != nil {
		if errors.Is(err, rdma.ErrOpFault) {
			// Nothing reached the wire: restore the acknowledgment counter
			// and give the block back; a later pass resends the acks.
			c.ackBlocks += ack
			_ = c.alloc.Free(b.off)
			c.recycleBlock(b)
			c.Counters.SendFaultRetries++
			c.fr.Record(FlightSendRetry, int64(b.seq), 0)
			return
		}
		c.fail(err)
		return
	}
	c.seq++
	c.credits--
	if uint64(c.credits) < c.Counters.MinCreditsSeen {
		c.Counters.MinCreditsSeen = uint64(c.credits)
	}
	c.Counters.BlocksSent++
	c.Counters.PayloadBytesSent += uint64(b.used)
	c.Counters.AckOnlyBlocks++
	c.fr.Record(FlightAckOnly, int64(ack), 0)
	c.unacked = append(c.unacked, b)
}

// Abort marks the connection broken and fails every outstanding request:
// each registered continuation is invoked once with an error response
// carrying the given status. Buffered-but-unsent requests fail too. The
// owner (poller) calls this at teardown so no caller waits on a response
// that can never arrive.
func (c *ClientConn) Abort(status uint16) {
	c.fail(errors.New("aborted"))
	// Requests already reaped by the deadline machinery have seen their
	// failure; flush any still queued for dispatch, then drop the machinery.
	c.dispatchLocalFailures()
	c.deadlines = nil
	for id := range c.timedOut {
		delete(c.timedOut, id)
	}
	fail := Response{Status: status, Err: true, LocalErr: ErrConnBroken}
	for _, b := range append(append([]*block(nil), c.sendQ...), c.cur) {
		if b == nil {
			continue
		}
		for _, cont := range b.conts {
			if cont != nil {
				cont(fail)
			}
		}
		b.conts = nil
	}
	c.sendQ = nil
	c.cur = nil
	for id := range c.conts {
		if cont := c.conts[id]; cont != nil {
			c.conts[id] = nil
			cont(fail)
		}
	}
	c.outstanding = 0
}

// Flush seals and attempts to transmit everything buffered.
func (c *ClientConn) Flush() error {
	if c.broken != nil {
		return c.broken
	}
	c.seal(flushExplicit)
	c.trySend()
	return c.broken
}

// Drain runs the event loop until every in-flight request has resolved
// (response, timeout, or connection failure) and nothing remains buffered,
// or the allowed time expires (ErrDrainTimeout). On a broken connection the
// remaining requests can never resolve on their own, so Drain fails them
// (Abort with StatusUnavailable) and returns the sticky error — either way,
// every continuation has run exactly once when Drain returns non-timeout.
// Owner-only.
func (c *ClientConn) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if c.broken != nil {
			c.Abort(StatusUnavailable)
			return c.broken
		}
		if c.outstanding == 0 && len(c.sendQ) == 0 &&
			(c.cur == nil || len(c.cur.conts) == 0) && len(c.pendingFails) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return ErrDrainTimeout
		}
		// Draining means no more traffic is coming: force partial batches
		// out now instead of waiting out CommitFlushTimeout.
		c.seal(flushExplicit)
		if _, err := c.Progress(); err != nil {
			c.Abort(StatusUnavailable)
			return err
		}
	}
}

// FaultInjector returns the fault injector attached to this side's QP, nil
// when fault injection is disabled.
func (c *ClientConn) FaultInjector() *fault.Injector { return c.injector }

// Wake makes the owner's blocking wait in Progress return at once (or its
// next one, if it is busy). Whoever queues work for the owner somewhere other
// than this connection's completion queue — an xRPC goroutine submitting a
// call — rings it after the hand-off, so WaitTimeout is an idle heartbeat and
// not a latency for that hand-off. Never blocks, never allocates; a no-op on
// a BusyPoll connection. Safe from any goroutine.
func (c *ClientConn) Wake() { c.recvCQ.Kick() }

// Close tears down the connection.
func (c *ClientConn) Close() {
	c.qp.Close()
}

// nowNS returns a monotonic timestamp in nanoseconds (the eRPC-style
// low-overhead timing source of Sec. VII, provided by Go's runtime clock).
func nowNS() int64 { return time.Now().UnixNano() }
