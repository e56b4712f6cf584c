package rpcrdma

import (
	"errors"
	"fmt"
	"time"

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

// reply is a response waiting for its continuation to run: one of an
// inbound block, parsed and waiting for the block's bookkeeping to finish,
// or a locally-failed request.
type reply struct {
	cont func(Response)
	resp Response
}

// Errors returned by the client.
var (
	ErrTooLargeForBuffer = errors.New("rpcrdma: message larger than send buffer")
	ErrConnBroken        = errors.New("rpcrdma: connection broken")
	// ErrSendBufferFull is returned by Reserve when the send arena stayed
	// exhausted through the bounded completion-drain wait (two WaitTimeouts).
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
	// Build writes the payload into dst (len(dst) == Size), whose first
	// byte sits at region offset regionOff in the request direction's
	// shared address space. It returns the root-object offset relative to
	// dst[0] and the bytes actually used (<= Size). dst holds stale bytes
	// (Reservation.Dst): Build must write every byte it declares used. A
	// nil Build sends Size zero bytes with root 0.
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

// ClientConn is the RPC-over-RDMA client endpoint — the role the DPU plays
// (Sec. III). One poller (goroutine) owns one ClientConn; none of its
// methods are safe for concurrent use. The embedded sender carries request
// blocks, the embedded receiver walks response blocks; what is the client's
// own is request-ID binding at send, continuations, deadlines and the
// ack-only block.
type ClientConn struct {
	sender
	receiver
	recvCQ *rdma.CQ

	pool *idPool
	// conts and idGen are indexed by request ID and cover every ID bound
	// so far (growIDTables).
	conts       []func(Response)
	freeIDs     []uint16 // IDs to return to the pool at the next send
	outstanding int

	// ready is the response walk's per-block dispatch list, kept for its
	// capacity.
	ready []reply

	// Deadline machinery (cfg.RequestTimeout > 0): the FIFO of in-flight
	// deadlines (send order is deadline order); per-ID generations, so a
	// stale entry cannot reap the ID's next tenant; and reaped IDs parked
	// until their (possibly never-arriving) late response retires them.
	deadlines []idDeadline
	idGen     []uint32
	timedOut  map[uint16]struct{}
	// pendingFails queues locally-failed requests (timeouts, reaped queued
	// blocks) for dispatch at a safe point of the event loop, keeping
	// trySend and the reaper free of reentrant continuations.
	pendingFails []reply
	// reclaiming guards the arena-exhaustion drain wait against reentry.
	reclaiming bool
	// inDispatch is true while continuations for one response block run
	// (reclaim must not reenter the event loop then).
	inDispatch bool

	cqes []rdma.CQE
}

func newClientConn(cfg Config, qp *rdma.QP, sendCQ, recvCQ *rdma.CQ, sbuf []byte, rbuf *rdma.MR, recvPosts int) (*ClientConn, error) {
	c := &ClientConn{
		recvCQ: recvCQ,
		pool:   newIDPool(),
		// The receive CQ never holds more than the posted receives, and
		// drainSendCQ polls until a poll comes back short.
		cqes: make([]rdma.CQE, recvPosts),
	}
	c.tombstone = header{method: CancelledMethod}
	if err := c.sender.init(cfg, qp, sendCQ, sbuf, c); err != nil {
		return nil, err
	}
	if err := c.receiver.init(rbuf, &c.sender, c, recvPosts); err != nil {
		return nil, err
	}
	if cfg.RequestTimeout > 0 {
		c.idGen = []uint32{}
		c.timedOut = make(map[uint16]struct{})
	}
	return c, nil
}

// growIDTables extends the per-ID tables to cover id, doubling them. The
// pool hands out every never-used ID, in order, before any freed one
// (idPool.virgin), so the tables grow as that range drains instead of being
// allocated, and zeroed, for all IDPoolSize IDs at set-up.
func (c *ClientConn) growIDTables(id uint16) {
	if int(id) < len(c.conts) {
		return
	}
	n := max(2*len(c.conts), 256)
	for n <= int(id) {
		n *= 2
	}
	n = min(n, IDPoolSize)
	c.conts = append(c.conts, make([]func(Response), n-len(c.conts))...)
	if c.idGen != nil {
		c.idGen = append(c.idGen, make([]uint32, n-len(c.idGen))...)
	}
}

// Outstanding returns the number of requests awaiting responses.
func (c *ClientConn) Outstanding() int { return c.outstanding }

// reclaim recovers from send-arena exhaustion, which under load only means
// acknowledgments are in flight: it drains response completions for up to
// two WaitTimeouts, retrying the allocation as they land. The wait is
// skipped inside a response dispatch or a nested reclaim, where draining
// would reenter the event loop.
func (c *ClientConn) reclaim(slot int) (*block, error) {
	if !c.inDispatch && !c.reclaiming {
		c.reclaiming = true
		defer func() { c.reclaiming = false }()
		deadline := time.Now().Add(2 * c.cfg.WaitTimeout)
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
				c.gauges.SendFullRecoveries.Add(1)
				return b, nil
			}
		}
	}
	return nil, errSendFull
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
	} else {
		clear(r.Dst)
	}
	return c.Commit(r, root, used)
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

// Reserve claims the next slot of the current block for a request of the
// given payload size, registering its continuation. This is the first stage
// of the reserve → build → commit pipeline: the owner reserves, any
// goroutine builds into Dst, the owner commits (Commit) or cancels (Cancel).
// Reservations are laid out in call order, so the block bytes (and the
// deterministic request-ID assignment of Sec. IV-D) are identical to the
// serial Enqueue path.
func (c *ClientConn) Reserve(method uint16, size int, onResponse func(Response)) (*Reservation, error) {
	r, err := c.reserve(size)
	if err != nil {
		return nil, err
	}
	r.h.method = method
	b := r.b
	b.conts = append(b.conts, onResponse)
	if c.traceTab != nil {
		b.trs = append(b.trs, nil)
	}
	c.outstanding++
	return r, nil
}

// cancelled drops a rolled-back slot's continuation, or gives a poisoned
// one a no-op continuation that absorbs the server's error response.
func (c *ClientConn) cancelled(r *Reservation, tail bool) {
	b := r.b
	if !tail {
		b.conts[r.idx] = func(Response) {}
		return
	}
	b.conts[r.idx] = nil
	b.conts = b.conts[:r.idx]
	if b.trs != nil {
		b.trs[r.idx] = nil
		b.trs = b.trs[:r.idx]
	}
	c.outstanding--
}

func (c *ClientConn) committed(*Reservation, int64) {}

func (c *ClientConn) acked(*block) {}

// bind binds a block's request IDs at send, once the pool can supply them:
// pending acknowledgments' IDs are freed first, then the block's allocated —
// the exact order the server replays (Sec. IV-D).
func (c *ClientConn) bind(b *block) bool {
	if c.pool.Available()+len(c.freeIDs) < b.msgs {
		return false // wait for more responses to recycle IDs
	}
	for _, id := range c.freeIDs {
		c.pool.Free(id)
	}
	c.freeIDs = c.freeIDs[:0]
	b.ids = b.ids[:0]
	for i := 0; i < b.msgs; i++ {
		id, err := c.pool.Alloc()
		if err != nil {
			c.fail(err) // cannot happen: availability checked above
			return false
		}
		b.ids = append(b.ids, id)
		c.growIDTables(id)
		c.conts[id] = b.conts[i]
		if b.trs != nil {
			// Publish (or clear a stale) trace ID under the request ID
			// the server is about to replay.
			c.traceTab[id].Store(b.trs[i].ID())
		}
	}
	return true
}

// unbind rewinds a rejected block's ID allocations: no frees ran since them,
// so Unalloc restores the pool bit-for-bit and the retry binds the same IDs.
func (c *ClientConn) unbind(b *block) {
	for _, id := range b.ids {
		c.conts[id] = nil
	}
	c.pool.Unalloc(len(b.ids))
}

// sent records the doorbell span of traced requests and arms deadlines.
func (c *ClientConn) sent(b *block, t0, t1 int64) {
	if b.trs != nil {
		for _, a := range b.trs {
			a.Span(trace.StageDoorbell, trace.ProcDPU, 0, t0, t1)
		}
	}
	if c.idGen != nil {
		at := nowNS() + c.cfg.RequestTimeout.Nanoseconds()
		for _, id := range b.ids {
			c.idGen[id]++
			c.deadlines = append(c.deadlines, idDeadline{id: id, gen: c.idGen[id], at: at})
		}
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

func (c *ClientConn) admit(*inBlock, int) error { return nil }

// message matches one response to its request's continuation, queueing it
// for dispatch once the whole block is walked.
func (c *ClientConn) message(_ int, h header, payload []byte, regionOff uint64) error {
	var cont func(Response)
	if int(h.reqID) < len(c.conts) {
		cont = c.conts[h.reqID]
	}
	if cont == nil {
		if _, late := c.timedOut[h.reqID]; late {
			// The request was reaped at its deadline and its caller
			// already saw ErrRequestTimeout; retire the parked ID and drop
			// the payload.
			delete(c.timedOut, h.reqID)
			c.freeIDs = append(c.freeIDs, h.reqID)
			c.Counters.LateResponsesDropped++
			c.gauges.LateResponsesDropped.Add(1)
			c.fr.Record(FlightLateResp, int64(h.reqID), 0)
			return nil
		}
		return fmt.Errorf("%w: response for idle request ID %d", ErrBlockCorrupt, h.reqID)
	}
	c.conts[h.reqID] = nil
	c.outstanding--
	c.Counters.ResponsesReceived++
	if h.errFlag {
		c.Counters.ErrorsReceived++
	}
	c.freeIDs = append(c.freeIDs, h.reqID)
	c.ready = append(c.ready, reply{cont, Response{
		Status:    h.method,
		Err:       h.errFlag,
		Object:    h.object,
		SG:        h.sg,
		Payload:   payload,
		RegionOff: regionOff,
		Root:      h.rootOff,
	}})
	return nil
}

// delivered runs the block's continuations, after its bookkeeping, so they
// can safely re-enqueue. The list is detached from the connection while in
// use, so a nested call could only ever allocate its own.
func (c *ClientConn) delivered() {
	ready := c.ready
	c.ready = nil
	c.inDispatch = true
	for _, d := range ready {
		if d.cont != nil {
			d.cont(d.resp)
		}
	}
	c.inDispatch = false
	clear(ready) // drop the continuations and payload views
	c.ready = ready[:0]
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
	c.drainSendCQ(c.cqes)
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
		// Sec. III-C) for at most WaitTimeout. A producer that hands this
		// connection's owner work through another queue rings Wake, which
		// ends the sleep at once; the caller then finds that work on its
		// next pass.
		var why rdma.Wake
		n, why = c.recvCQ.Wait(c.cqes, c.cfg.WaitTimeout)
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
	if c.acks > 0 && (c.outstanding > 0 || len(c.timedOut) > 0) &&
		len(c.sendQ) == 0 &&
		(c.cur == nil || c.cur.msgs == 0) && c.credits > 0 {
		c.sendAckOnly()
	}
	c.refreshGauges(c.outstanding)
	return events, c.broken
}

// processRecvCQEs dispatches a batch of receive completions, each an inbound
// response block. It returns the number of blocks processed; on error the
// connection is already failed.
func (c *ClientConn) processRecvCQEs(cqes []rdma.CQE) (int, error) {
	for i, e := range cqes {
		if err := c.complete(e); err != nil {
			return i, err
		}
	}
	return len(cqes), nil
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
		c.gauges.RequestsTimedOut.Add(1)
		c.fr.Record(FlightTimeout, int64(d.id), 0)
		reaped++
		c.pendingFails = append(c.pendingFails, reply{cont, Response{
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
				c.pendingFails = append(c.pendingFails, reply{cont, Response{
					Status: StatusDeadlineExceeded, Err: true, LocalErr: ErrRequestTimeout,
				}})
			}
			c.outstanding--
			c.Counters.RequestsTimedOut++
			c.gauges.RequestsTimedOut.Add(1)
			reaped++
		}
		c.recycle(b)
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
	if b := c.takeBlock(off, BlockAlign); !c.post(b) {
		// Nothing reached the wire: give the block back; a later pass
		// resends the acks.
		_ = c.alloc.Free(b.off)
		c.recycle(b)
	}
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
			(c.cur == nil || c.cur.msgs == 0) && len(c.pendingFails) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return ErrDrainTimeout
		}
		if _, err := c.Progress(); err != nil {
			c.Abort(StatusUnavailable)
			return err
		}
	}
}

// Wake makes the owner's blocking wait in Progress return at once (or its
// next one, if it is busy). Whoever queues work for the owner somewhere other
// than this connection's completion queue — an xRPC goroutine submitting a
// call — rings it after the hand-off, so WaitTimeout is an idle heartbeat and
// not a latency for that hand-off. Never blocks, never allocates; a no-op on
// a BusyPoll connection. Safe from any goroutine.
func (c *ClientConn) Wake() { c.recvCQ.Kick() }

// Close tears down the connection.
func (c *ClientConn) Close() { c.qp.Close() }

// nowNS returns a monotonic timestamp in nanoseconds (the eRPC-style
// low-overhead timing source of Sec. VII, provided by Go's runtime clock).
func nowNS() int64 { return time.Now().UnixNano() }
