package rpcrdma

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dpurpc/internal/arena"
	"dpurpc/internal/fault"
	"dpurpc/internal/rdma"
	"dpurpc/internal/trace"
)

// Request is one inbound RPC as seen by a server handler. Payload aliases
// the receive buffer: for offloaded connections it contains the
// already-deserialized object graph, ready for zero-copy access. Views are
// valid only for the duration of the handler (the block may be recycled
// once responses are sent).
type Request struct {
	// Method is the procedure ID from the header.
	Method uint16
	// ID is the deterministic request ID both sides derived.
	ID uint16
	// Payload aliases the block payload.
	Payload []byte
	// RegionOff is the region offset of Payload[0] in the request
	// direction's shared address space.
	RegionOff uint64
	// Root is the root-object offset relative to Payload[0].
	Root uint32
	// SG reports scatter-gather framing: the payload begins with a
	// validated descriptor table (ParseSGTable) and the object area
	// follows it; descriptor-backed fields reference payload segments at
	// the slot's tail by region offset.
	SG bool
	// Trace is the trace ID propagated from the client side through the
	// out-of-band request-ID table (0 = untraced; see Config.Tracer).
	Trace uint64
	// Worker identifies the goroutine lane running the handler (0 = the
	// poller thread, 1..N = worker i). Instrumentation only.
	Worker int
}

// ResponseSpec is what a handler returns: the status plus a payload builder
// that writes the response object into the response direction's shared
// address space.
type ResponseSpec struct {
	Status uint16
	Err    bool
	// Object marks the payload as a shared-region object graph (root
	// meaningful) rather than opaque bytes — the response-serialization
	// offload mode.
	Object bool
	// Size reserves payload space; Build fills it (see CallSpec.Build).
	Size  int
	Build func(dst []byte, regionOff uint64) (root uint32, used int, err error)
	// SG marks the payload as scatter-gather framed (descriptor table +
	// payload segments, see CallSpec.SG). It must be decided before Build
	// runs — Size includes the table and segment area, and Build writes
	// the table. SGSegs/SGBytes feed the endpoint counters.
	SG      bool
	SGSegs  int
	SGBytes int
}

// Handler processes one request in the poller thread (foreground execution,
// Sec. III-D).
type Handler func(Request) ResponseSpec

// reqBlockState tracks one received request block until every request in
// it has been answered, at which point it becomes acknowledgeable (in
// receive order) via the next response preamble.
type reqBlockState struct {
	remaining int
}

// markAnswered records the completion of one request and advances the
// acknowledgment prefix.
func (s *ServerConn) markAnswered(id uint16) {
	b := s.reqBlockOf[id]
	if b == nil {
		return
	}
	delete(s.reqBlockOf, id)
	b.remaining--
	s.advanceAckPrefix()
}

// advanceAckPrefix counts leading fully-answered request blocks into
// ackReady, preserving receive order so the client frees its oldest blocks
// first. A fully-answered block has no entry left in reqBlockOf, so its
// state goes back to the free list here.
func (s *ServerConn) advanceAckPrefix() {
	for len(s.reqBlocks) > 0 && s.reqBlocks[0].remaining == 0 {
		s.freeReqBlocks = append(s.freeReqBlocks, s.reqBlocks[0])
		s.reqBlocks = s.reqBlocks[0:copy(s.reqBlocks, s.reqBlocks[1:])]
		s.ackReady++
	}
}

// respBlock is a response block under construction or in flight. Like the
// client's blocks they are recycled (ServerConn.freeRespBlocks): taken by
// newRespBlock, returned where the client's acknowledgment frees the block.
type respBlock struct {
	off     uint64
	buf     []byte
	used    int
	pending int      // reserved slots whose payload is still being built
	ids     []uint16 // request IDs answered, in slot order (for the ack protocol)
	msgs    uint16
	firstAt int64 // when the first slot was reserved (commit coalescing)
	// res holds each slot's RespReservation, reused like block.res.
	res []*RespReservation
}

// reservation returns the RespReservation storage of slot idx.
func (b *respBlock) reservation(idx int) *RespReservation {
	if idx == len(b.res) {
		b.res = append(b.res, new(RespReservation))
	}
	return b.res[idx]
}

// ServerConn is the host-side endpoint of one connection.
type ServerConn struct {
	cfg     Config
	qp      *rdma.QP
	sendCQ  *rdma.CQ
	sbuf    []byte
	rbuf    *rdma.MR
	alloc   *arena.Allocator
	pool    *idPool
	credits int
	seq     uint32
	handler Handler

	cur    *respBlock
	sendQ  []*respBlock
	unfree []*respBlock // sent, awaiting the client's preamble ack
	// Poller-owned free lists of per-block state, and the scratch the
	// request walk allocates each block's IDs into.
	freeRespBlocks []*respBlock
	freeReqBlocks  []*reqBlockState
	idScratch      []uint16

	// duplex is the response-direction pipeline (nil unless
	// Config.HostWorkers > 1): handlers and response builds run on the
	// pool, the poller reserves slots as handlers finish (dxReady) and
	// commits them as builds complete. See duplex.go.
	duplex     *duplexPool
	dxReady    []*respTask
	dxInflight int
	dxBacklog  []*respTask
	dxMax      int

	// traceTab is the out-of-band trace-ID table shared with the peer
	// ClientConn (see Connect); traceOf caches the resolved handle of each
	// in-flight traced request ID. Both are nil/empty when untraced.
	traceTab []atomic.Uint64
	traceOf  map[uint16]*trace.Active

	// reqBlocks tracks received request blocks in order; a block is
	// acknowledged (via the next response preamble) once every request in
	// it has been answered. reqBlockOf maps in-flight request IDs to their
	// block.
	reqBlocks  []*reqBlockState
	reqBlockOf map[uint16]*reqBlockState
	ackReady   uint16 // fully-answered leading blocks not yet acknowledged

	// expectSeq is the next request-block sequence number; a mismatch means
	// a block was lost in flight (ErrSeqGap, connection-fatal — see the
	// client-side twin).
	expectSeq uint32
	// injector is this side's outbound fault injector (nil when disabled).
	injector *fault.Injector

	// broken is the sticky connection error: fail() is its only writer and
	// runs on the owner (poller) goroutine, which reads the field bare.
	// brokenMirror republishes it for cross-goroutine readers (Broken).
	broken       error
	brokenMirror atomic.Pointer[error]

	// recvPosts is the number of receive WRs this connection committed
	// against the poller's shared CQ; the poller reclaims that budget when
	// it reaps the connection after a break.
	recvPosts int

	// Counters instrument the endpoint.
	Counters Counters
}

// newServerConn builds the host endpoint. wakeCQ is the poller's shared
// receive CQ, which the duplex workers ring when they queue a completion.
func newServerConn(cfg Config, qp *rdma.QP, sendCQ, wakeCQ *rdma.CQ, sbuf []byte, rbuf *rdma.MR, h Handler, recvPosts int) (*ServerConn, error) {
	s := &ServerConn{
		cfg: cfg, qp: qp, sendCQ: sendCQ, sbuf: sbuf, rbuf: rbuf,
		alloc:     arena.NewAllocator(uint64(len(sbuf))),
		pool:      newIDPool(),
		credits:   cfg.Credits,
		handler:   h,
		recvPosts: recvPosts,
	}
	s.Counters.MinCreditsSeen = uint64(cfg.Credits)
	s.reqBlockOf = make(map[uint16]*reqBlockState)
	if cfg.Tracer != nil {
		s.traceOf = make(map[uint16]*trace.Active)
	}
	if cfg.HostWorkers > 1 {
		s.dxMax = 4 * cfg.HostWorkers
		s.duplex = newDuplexPool(cfg.HostWorkers, s.dxMax, h, wakeCQ)
	}
	if _, err := s.alloc.Alloc(BlockAlign, BlockAlign); err != nil {
		return nil, err
	}
	for i := 0; i < recvPosts; i++ {
		if err := qp.PostRecv(rdma.RecvWR{WRID: uint64(i)}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Broken returns the sticky connection error, if any. Safe from any
// goroutine: it reads an atomic mirror of the owner-written field.
func (s *ServerConn) Broken() error {
	if e := s.brokenMirror.Load(); e != nil {
		return *e
	}
	return nil
}

// Credits returns the current response-credit count.
func (s *ServerConn) Credits() int { return s.credits }

func (s *ServerConn) fail(err error) {
	if s.broken == nil {
		s.broken = fmt.Errorf("%w: %w", ErrConnBroken, err)
		s.brokenMirror.Store(&s.broken)
		// Close the QP so the peer observes the failure on its next post
		// (ErrClosed) instead of waiting out its own timeouts. The shared
		// poller CQ survives (MarkSharedRecvCQ); only this connection dies.
		s.qp.Close()
	}
}

// FaultInjector returns the fault injector attached to this side's QP, nil
// when fault injection is disabled.
func (s *ServerConn) FaultInjector() *fault.Injector { return s.injector }

func (s *ServerConn) newRespBlock(firstSlot int) (*respBlock, error) {
	size := s.cfg.BlockSize
	if need := PreambleSize + firstSlot; need > size {
		size = need
	}
	off, err := s.alloc.Alloc(uint64(size), BlockAlign)
	if err != nil {
		return nil, err
	}
	var b *respBlock
	if n := len(s.freeRespBlocks); n > 0 {
		b = s.freeRespBlocks[n-1]
		s.freeRespBlocks = s.freeRespBlocks[:n-1]
	} else {
		b = &respBlock{}
	}
	*b = respBlock{off: off, buf: s.sbuf[off : off+uint64(size)], used: PreambleSize, ids: b.ids[:0], res: b.res}
	return b, nil
}

// RespReservation is a claimed response slot in the outgoing batch: header
// and payload space are reserved and the slot's position in the block is
// fixed, but the payload is not yet built and the block cannot transmit
// until the slot is committed (or cancelled). Dst and RegionOff let a
// worker goroutine build the payload off the poller; every other method of
// the connection remains poller-only.
type RespReservation struct {
	// Dst is the reserved payload area (len == reserved Size).
	Dst []byte
	// RegionOff is the region offset of Dst[0] in the response direction's
	// shared address space.
	RegionOff uint64
	// SG, set by the poller before CommitResponse, stamps the
	// scatter-gather flag on the response header. SGSegs/SGBytes feed the
	// endpoint counters.
	SG      bool
	SGSegs  int
	SGBytes int

	b      *respBlock
	id     uint16
	idx    int // index in b.ids
	hdrPos int
	size   int
	done   bool
}

// MaxPayload returns the largest payload size ReserveResponse can ever
// place: one slot filling the whole send buffer behind the NullRef guard at
// offset 0 and the block preamble.
func (s *ServerConn) MaxPayload() int {
	return (len(s.sbuf) - BlockAlign - PreambleSize - HeaderSize) &^ 7
}

// refusal is the response that replaces one no block can hold
// (ErrTooLargeForBuffer): the build-failure status, carrying err's text.
func refusal(err error) ResponseSpec {
	msg := err.Error()
	return ResponseSpec{
		Status: duplexBuildFailed,
		Err:    true,
		Size:   len(msg),
		Build: func(dst []byte, _ uint64) (uint32, int, error) {
			return 0, copy(dst, msg), nil
		},
	}
}

// ReserveResponse claims a response slot for request id with a payload
// capacity of size bytes. The slot joins the current block in call order
// (any order keeps the ID replay contract, see duplex.go); the block
// transmits only after every reserved slot commits. Poller-only.
func (s *ServerConn) ReserveResponse(id uint16, size int) (*RespReservation, error) {
	if s.broken != nil {
		return nil, s.broken
	}
	var act *trace.Active
	var actT0 int64
	if s.traceOf != nil {
		if act = s.traceOf[id]; act != nil {
			actT0 = nowNS()
		}
	}
	slot := slotSize(size)
	if size > s.MaxPayload() {
		return nil, fmt.Errorf("%w: response needs %d bytes", ErrTooLargeForBuffer, slot)
	}
	if s.cur != nil && s.cur.used+slot > len(s.cur.buf) {
		s.sealResp(flushFull)
	}
	if s.cur == nil {
		b, err := s.newRespBlock(slot)
		if err != nil {
			s.trySendResponses()
			if b, err = s.newRespBlock(slot); err != nil {
				return nil, err
			}
		}
		s.cur = b
	}
	b := s.cur
	if s.cfg.CommitBatch > 1 && b.msgs == 0 {
		// First response of a batch: start its CommitFlushTimeout clock.
		b.firstAt = nowNS()
	}
	hdrPos := b.used
	b.used = hdrPos + HeaderSize + alignUp(size)
	r := b.reservation(len(b.ids))
	*r = RespReservation{
		Dst:       b.buf[hdrPos+HeaderSize : hdrPos+HeaderSize+size],
		RegionOff: b.off + uint64(hdrPos+HeaderSize),
		b:         b,
		id:        id,
		idx:       len(b.ids),
		hdrPos:    hdrPos,
		size:      size,
	}
	b.ids = append(b.ids, id)
	b.msgs++
	b.pending++
	if act != nil {
		act.Span(trace.StageRespReserve, trace.ProcHost, 0, actT0, nowNS())
	}
	return r, nil
}

// CommitResponse finalizes a reserved slot: writes the header, shrinks or
// pads the payload to used bytes, and releases the block for transmission
// once no sibling slots remain pending. Poller-only.
func (s *ServerConn) CommitResponse(r *RespReservation, status uint16, errFlag, object bool, root uint32, used int) error {
	if r.done {
		return fmt.Errorf("rpcrdma: response reservation already completed")
	}
	if s.broken != nil {
		r.done = true
		return s.broken
	}
	if used > r.size {
		r.done = true
		return fmt.Errorf("%w: build used %d > reserved %d", ErrPayloadSize, used, r.size)
	}
	var act *trace.Active
	var actT0 int64
	if s.traceOf != nil {
		if act = s.traceOf[r.id]; act != nil {
			actT0 = nowNS()
		}
	}
	b := r.b
	var pad int
	if b == s.cur && r.hdrPos+HeaderSize+alignUp(r.size) == b.used {
		// Tail slot of the open block: shrink the block to the bytes
		// actually used, exactly as the serial append did.
		b.used = r.hdrPos + HeaderSize + alignUp(used)
	} else if used < r.size {
		// Interior slot: the stride is fixed by later reservations, so the
		// header carries the leftover bytes as pad — keeping the declared
		// payload length exact — and the suffix is cleared so the wire
		// bytes stay deterministic.
		pad = alignUp(r.size) - alignUp(used)
		if pad/8 > 0xFFFF {
			r.done = true
			b.pending--
			err := fmt.Errorf("rpcrdma: response slot pad %d exceeds the wire format", pad)
			s.fail(err)
			return err
		}
		clear(b.buf[r.hdrPos+HeaderSize+used : r.hdrPos+HeaderSize+alignUp(r.size)])
	}
	putHeader(b.buf[r.hdrPos:], header{
		payloadLen: uint32(used),
		rootOff:    root,
		method:     status,
		reqID:      r.id,
		pad:        uint32(pad),
		response:   true,
		errFlag:    errFlag,
		object:     object,
		sg:         r.SG,
	})
	if r.SG {
		s.Counters.SGMessagesSent++
		s.Counters.SGSegmentsSent += uint64(r.SGSegs)
		s.Counters.SGBytesSent += uint64(r.SGBytes)
	}
	r.done = true
	b.pending--
	s.Counters.ResponsesSent++
	s.markAnswered(r.id)
	if act != nil {
		act.Span(trace.StageRespCommit, trace.ProcHost, 0, actT0, nowNS())
	}
	if b == s.cur && b.pending == 0 && b.used >= s.cfg.BlockSize {
		s.sealResp(flushFull)
	}
	return nil
}

// CancelResponse abandons a reserved slot. A tail slot of the open block is
// rolled back entirely (the serial wrapper's build-failure path, which must
// leave the block byte-identical to pre-reserve state); an interior slot
// cannot be excised, so it is committed as an error tombstone instead.
// Poller-only.
func (s *ServerConn) CancelResponse(r *RespReservation) {
	if r.done {
		return
	}
	b := r.b
	if b == s.cur && r.idx == len(b.ids)-1 && r.hdrPos+HeaderSize+alignUp(r.size) == b.used {
		b.used = r.hdrPos
		b.ids = b.ids[:r.idx]
		b.msgs--
		b.pending--
		r.done = true
		return
	}
	// Tombstones carry an empty payload: never stamp the SG flag a build
	// may have requested before it failed.
	r.SG, r.SGSegs, r.SGBytes = false, 0, 0
	if err := s.CommitResponse(r, duplexBuildFailed, true, false, 0, 0); err != nil {
		s.fail(err)
	}
}

// appendResponse adds one response message to the outgoing batch — the
// serial path, now a thin wrapper over the reserve/commit split.
func (s *ServerConn) appendResponse(id uint16, spec ResponseSpec) error {
	r, err := s.ReserveResponse(id, spec.Size)
	if errors.Is(err, ErrTooLargeForBuffer) {
		spec = refusal(err)
		r, err = s.ReserveResponse(id, spec.Size)
	}
	if err != nil {
		return err
	}
	r.SG, r.SGSegs, r.SGBytes = spec.SG, spec.SGSegs, spec.SGBytes
	var root uint32
	used := spec.Size
	if spec.Build != nil {
		var act *trace.Active
		var actT0 int64
		if s.traceOf != nil {
			if act = s.traceOf[id]; act != nil {
				actT0 = nowNS()
			}
		}
		root, used, err = spec.Build(r.Dst, r.RegionOff)
		if err != nil {
			s.CancelResponse(r)
			return err
		}
		if act != nil {
			act.Span(trace.StageRespBuild, trace.ProcHost, 0, actT0, nowNS())
		}
	}
	return s.CommitResponse(r, spec.Status, spec.Err, spec.Object, root, used)
}

func (s *ServerConn) sealResp(reason flushReason) {
	if s.cur == nil || s.cur.msgs == 0 {
		return
	}
	if s.cur.used < s.cfg.BlockSize {
		s.Counters.PartialFlushes++
	}
	s.Counters.countFlush(reason)
	s.sendQ = append(s.sendQ, s.cur)
	s.cur = nil
}

// flushPartial seals the partial current block unless reserved slots are
// still building — the same pending rule as the client's maybeSeal — or
// while it could not be sent (liveness rule (b):
// responses coalesce into the open block instead of each stranding a
// BlockSize of send arena in its own). With CommitBatch > 1 it applies the
// coalescing policy instead of sealing every pass: the block waits for
// CommitBatch responses or its CommitFlushTimeout, whichever comes first.
func (s *ServerConn) flushPartial() {
	if s.cur == nil || s.cur.msgs == 0 {
		return
	}
	if s.cur.pending > 0 || !s.canSend() {
		return
	}
	if s.cfg.CommitBatch > 1 {
		if int(s.cur.msgs) >= s.cfg.CommitBatch {
			s.sealResp(flushBatch)
			return
		}
		if nowNS()-s.cur.firstAt < s.cfg.CommitFlushTimeout.Nanoseconds() {
			return
		}
		s.sealResp(flushTimer)
		return
	}
	s.sealResp(flushExplicit)
}

// canSend applies liveness rule (a) (Sec. VI-A): a block that acknowledges
// nothing may not take the last credit. One that acknowledges something
// returns a credit to the peer, which then owes an acknowledgment of its
// own, so both sides can never sit at zero credits with acks owed.
func (s *ServerConn) canSend() bool {
	return s.credits > 1 || (s.credits == 1 && s.ackReady > 0)
}

func (s *ServerConn) trySendResponses() {
	for len(s.sendQ) > 0 {
		if !s.canSend() {
			s.Counters.CreditStalls++
			return
		}
		b := s.sendQ[0]
		if b.pending > 0 {
			// Head-of-line slot still building on a duplex worker; the
			// block's wire position is fixed, so later blocks must wait.
			s.Counters.PipelineStalls++
			return
		}
		ack := s.ackReady
		s.ackReady = 0
		putPreamble(b.buf, preamble{
			msgCount:  b.msgs,
			ackBlocks: ack,
			blockLen:  uint32(b.used),
			seq:       s.seq,
		})
		var dbT0 int64
		if s.traceOf != nil {
			dbT0 = nowNS()
		}
		if err := s.qp.PostWriteImm(uint64(s.seq), b.buf[:b.used], b.off, uint32(b.off/BlockAlign)); err != nil {
			if errors.Is(err, rdma.ErrOpFault) {
				// The wire rejected the post before any bytes moved: restore
				// the unsent acknowledgment counter and leave the block at
				// the head of the queue — no IDs were consumed (response IDs
				// are frees, applied only on the client's receipt), so the
				// next poller pass retries it verbatim.
				s.ackReady += ack
				s.Counters.SendFaultRetries++
				return
			}
			s.fail(err)
			return
		}
		if s.traceOf != nil {
			dbEnd := nowNS()
			for _, id := range b.ids {
				if act := s.traceOf[id]; act != nil {
					act.Span(trace.StageRespDoorbell, trace.ProcHost, 0, dbT0, dbEnd)
					delete(s.traceOf, id)
				}
			}
		}
		s.seq++
		s.credits--
		if uint64(s.credits) < s.Counters.MinCreditsSeen {
			s.Counters.MinCreditsSeen = uint64(s.credits)
		}
		s.Counters.BlocksSent++
		s.Counters.PayloadBytesSent += uint64(b.used)
		s.unfree = append(s.unfree, b)
		s.sendQ = s.sendQ[0:copy(s.sendQ, s.sendQ[1:])]
	}
}

// handleRequestBlock processes one inbound request block: acknowledgments
// first (free IDs, reclaim response blocks and credits), then deterministic
// ID allocation for the block's requests, then foreground execution of each
// request in order (Sec. IV-D ordering contract).
func (s *ServerConn) handleRequestBlock(imm uint32, byteLen uint32) error {
	if s.broken != nil {
		return s.broken
	}
	off := uint64(imm) * BlockAlign
	if off+uint64(byteLen) > uint64(s.rbuf.Len()) {
		return fmt.Errorf("%w: bucket %d beyond receive buffer", ErrBlockCorrupt, imm)
	}
	blk := s.rbuf.Bytes()[off : off+uint64(byteLen)]
	p, err := parsePreamble(blk)
	if err != nil {
		return err
	}
	// Reliable connections deliver in order, so a sequence discontinuity
	// means a lost request block — fatal, because the deterministic ID
	// replay of Sec. IV-D cannot survive a gap (every later allocation
	// would desynchronize and misdeliver responses).
	if p.seq != s.expectSeq {
		return fmt.Errorf("%w: request block seq %d, expected %d", ErrSeqGap, p.seq, s.expectSeq)
	}
	s.expectSeq++
	// 1. Process the client's implicit acks: pop that many sent response
	// blocks, free their request IDs in order, reclaim memory and credits.
	for i := 0; i < int(p.ackBlocks); i++ {
		if len(s.unfree) == 0 {
			return fmt.Errorf("%w: ack for no outstanding response block", ErrBlockCorrupt)
		}
		b := s.unfree[0]
		for _, id := range b.ids {
			s.pool.Free(id)
		}
		if err := s.alloc.Free(b.off); err != nil {
			return err
		}
		s.credits++
		s.Counters.BlocksAcked++
		s.unfree = s.unfree[0:copy(s.unfree, s.unfree[1:])]
		s.freeRespBlocks = append(s.freeRespBlocks, b)
	}
	// 2. Allocate IDs for this block's requests, mirroring the client. The
	// scratch is safe to reuse per block: the walk below is the only reader
	// and handlers cannot reenter it.
	ids := s.idScratch[:0]
	for i := 0; i < int(p.msgCount); i++ {
		id, err := s.pool.Alloc()
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	s.idScratch = ids
	// Track the block for acknowledgment. An ack-only block (msgCount 0)
	// is complete on receipt and enters the ack prefix immediately.
	var rb *reqBlockState
	if n := len(s.freeReqBlocks); n > 0 {
		rb = s.freeReqBlocks[n-1]
		s.freeReqBlocks = s.freeReqBlocks[:n-1]
	} else {
		rb = &reqBlockState{}
	}
	rb.remaining = int(p.msgCount)
	s.reqBlocks = append(s.reqBlocks, rb)
	for _, id := range ids {
		s.reqBlockOf[id] = rb
	}
	s.advanceAckPrefix()
	// 3. Foreground execution: the entire block is processed before its
	// responses flush, which is what makes first-response acknowledgment
	// safe (Sec. IV-B).
	pos := PreambleSize
	for i := 0; i < int(p.msgCount); i++ {
		var reqT0 int64
		if s.traceOf != nil {
			reqT0 = nowNS()
		}
		if pos+HeaderSize > int(p.blockLen) {
			return fmt.Errorf("%w: header %d beyond block", ErrBlockCorrupt, i)
		}
		h, err := parseHeader(blk[pos:])
		if err != nil {
			return err
		}
		if h.response {
			return fmt.Errorf("%w: response header in request block", ErrBlockCorrupt)
		}
		end := pos + HeaderSize + int(h.payloadLen)
		if end > int(p.blockLen) {
			return fmt.Errorf("%w: payload beyond block", ErrBlockCorrupt)
		}
		if h.sg {
			// Validate the descriptor table before any handler can follow a
			// reference into it — a torn descriptor must never reach a view.
			if err := ValidateSGTable(blk[pos+HeaderSize : end]); err != nil {
				return err
			}
			s.Counters.SGMessagesReceived++
		}
		s.Counters.RequestsReceived++
		if s.shouldShed() {
			// Admission control: reject before the request reaches any
			// handler or response-arena wait, with the retryable status, so
			// overload degrades into immediate UNAVAILABLE sheds instead of
			// bounded-wait timeouts downstream.
			s.Counters.AdmissionSheds++
			if err := s.appendResponse(ids[i], ResponseSpec{Status: StatusUnavailable, Err: true}); err != nil {
				return err
			}
			pos = pos + HeaderSize + alignUp(int(h.payloadLen)) + int(h.pad)
			continue
		}
		req := Request{
			Method:    h.method,
			ID:        ids[i],
			Payload:   blk[pos+HeaderSize : end],
			RegionOff: off + uint64(pos+HeaderSize),
			Root:      h.rootOff,
			SG:        h.sg,
		}
		// Resolve the propagated trace ID: the client published it in the
		// shared table under the request ID this side just replayed.
		if s.traceOf != nil && s.traceTab != nil {
			if tid := s.traceTab[ids[i]].Load(); tid != 0 {
				if act := s.cfg.Tracer.Lookup(tid); act != nil {
					req.Trace = tid
					s.traceOf[ids[i]] = act
					act.Span(trace.StageHostDispatch, trace.ProcHost, 0, reqT0, nowNS())
				}
			}
		}
		if s.duplex != nil {
			// Duplex pipeline (Sec. III-D background execution): handler
			// AND response build run on the worker pool. The payload view
			// outlives sibling responses: the block is acknowledged only
			// once every request in it is answered.
			s.dxAdmit(ids[i], req)
		} else {
			// Foreground execution in the poller thread.
			if err := s.appendResponse(ids[i], s.handler(req)); err != nil {
				return err
			}
		}
		pos = pos + HeaderSize + alignUp(int(h.payloadLen)) + int(h.pad)
	}
	s.Counters.BlocksReceived++
	return nil
}

// shouldShed reports whether admission control rejects a new request: the
// in-flight request count or response-arena occupancy crossed its
// configured high-water mark (Config.AdmitMaxInflight / AdmitArenaFrac).
// Both knobs zero (the default) never sheds.
func (s *ServerConn) shouldShed() bool {
	if hw := s.cfg.AdmitMaxInflight; hw > 0 && len(s.reqBlockOf) > hw {
		return true
	}
	if f := s.cfg.AdmitArenaFrac; f > 0 &&
		float64(s.alloc.InUse()) > f*float64(s.alloc.Size()) {
		return true
	}
	return false
}

// drainSendCQ consumes local send completions.
func (s *ServerConn) drainSendCQ(cqes []rdma.CQE) {
	for {
		n := s.sendCQ.Poll(cqes)
		for _, e := range cqes[:n] {
			if e.Status != rdma.StatusOK {
				s.fail(fmt.Errorf("send completion status %d", e.Status))
			}
		}
		if n < len(cqes) {
			return
		}
	}
}

// ServerPoller drives one or more server connections over a shared receive
// completion queue — the paper's server threading model where "a single
// poller can share multiple connections" (Sec. III-C). Connections may
// attach while the poller runs (redialing clients establish replacements
// from their own goroutines) and broken connections are reaped, returning
// their receive-WR budget to the shared CQ.
type ServerPoller struct {
	cfg    Config
	recvCQ *rdma.CQ
	conns  map[uint32]*ServerConn
	cqes   []rdma.CQE

	// mu guards the attach-side state: Connect registers new connections
	// (possibly from a redialing client's goroutine) into pending; the
	// owner admits them into conns at the top of its next Progress pass.
	// postedWRs accounts the shared CQ budget of admitted and pending
	// connections together, so concurrent attaches cannot oversubscribe.
	mu        sync.Mutex
	pending   []pendingConn
	postedWRs int

	// Counters holds the poller-level counters — the Wake* fields: why each
	// blocking wait on the shared CQ returned. Owner-only, like every
	// connection's Counters; wakes mirrors them for live readers.
	Counters Counters
	wakes    WakeGauges

	// Owner-only reap state: stale completions for a reaped QP are dropped
	// (the QP died mid-flight), and the reaped connections' counters
	// accumulate in dead so aggregate accounting survives churn.
	reaped map[uint32]struct{}
	dead   []Counters
}

type pendingConn struct {
	qpNum uint32
	conn  *ServerConn
}

// posted returns the receive WRs committed against the shared CQ.
func (sp *ServerPoller) posted() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.postedWRs
}

// attach reserves posted receive WRs of shared-CQ budget and queues the
// connection for admission by the owner. Safe from any goroutine; fails
// with ErrPollerFull when the CQ cannot absorb the connection's worst-case
// inbound block count.
func (sp *ServerPoller) attach(qpNum uint32, sc *ServerConn, posted int) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.postedWRs+posted > sp.cfg.CQDepth {
		return fmt.Errorf("%w: need %d more, %d of %d in use",
			ErrPollerFull, posted, sp.postedWRs, sp.cfg.CQDepth)
	}
	sp.postedWRs += posted
	sp.pending = append(sp.pending, pendingConn{qpNum: qpNum, conn: sc})
	return nil
}

// admitPending moves attached connections into the owner's map. Owner-only.
func (sp *ServerPoller) admitPending() {
	sp.mu.Lock()
	for _, pc := range sp.pending {
		sp.conns[pc.qpNum] = pc.conn
	}
	sp.pending = sp.pending[:0]
	sp.mu.Unlock()
}

// reap detaches a broken connection: its receive-WR budget returns to the
// shared CQ (making room for a redialed replacement), its counters fold
// into the dead aggregate, its worker pool stops, and later completions
// for its QP are ignored. Owner-only.
func (sp *ServerPoller) reap(qpNum uint32, conn *ServerConn) {
	delete(sp.conns, qpNum)
	sp.reaped[qpNum] = struct{}{}
	sp.dead = append(sp.dead, conn.Counters)
	sp.mu.Lock()
	sp.postedWRs -= conn.recvPosts
	sp.mu.Unlock()
	conn.duplex.close()
}

// NewServerPoller returns a poller whose shared CQ can absorb depth
// completions.
func NewServerPoller(cfg Config) *ServerPoller {
	cfg.fillDefaults(false)
	return &ServerPoller{
		cfg:    cfg,
		recvCQ: rdma.NewCQ(cfg.CQDepth),
		conns:  make(map[uint32]*ServerConn),
		cqes:   make([]rdma.CQE, 256),
		reaped: make(map[uint32]struct{}),
	}
}

// Conns returns the attached connections (admitted and pending).
func (sp *ServerPoller) Conns() []*ServerConn {
	out := make([]*ServerConn, 0, len(sp.conns))
	for _, c := range sp.conns {
		out = append(out, c)
	}
	sp.mu.Lock()
	for _, pc := range sp.pending {
		out = append(out, pc.conn)
	}
	sp.mu.Unlock()
	return out
}

// ReapedConns returns the number of broken connections the poller has
// detached, and DeadCounters their final endpoint counters — churn-safe
// aggregation hooks for the harnesses. Owner-only (call after the poller
// goroutine has stopped, or from it).
func (sp *ServerPoller) ReapedConns() int { return len(sp.dead) }

// DeadCounters returns the endpoint counters of every reaped connection.
func (sp *ServerPoller) DeadCounters() []Counters { return sp.dead }

// Progress is the server event-loop update: it dispatches inbound blocks to
// their connections, runs handlers foreground, and flushes responses. It
// returns the number of request blocks processed.
func (sp *ServerPoller) Progress() (int, error) {
	events := 0
	sp.admitPending()
	n := sp.recvCQ.Poll(sp.cqes)
	if n == 0 && !sp.cfg.BusyPoll {
		// Idle: sleep until a request block lands, a worker pool kicks the
		// CQ after queueing a completion, or the heartbeat elapses.
		var why rdma.Wake
		n, why = sp.recvCQ.Wait(sp.cqes, sp.waitBudget())
		countWake(&sp.Counters, &sp.wakes, why)
	}
	var firstErr error
	for _, e := range sp.cqes[:n] {
		conn := sp.conns[e.QPNum]
		if conn == nil {
			// The connection may have attached after this pass's admit but
			// before its client's first block landed; admit again before
			// declaring the completion orphaned.
			sp.admitPending()
			conn = sp.conns[e.QPNum]
		}
		if conn == nil {
			if _, wasReaped := sp.reaped[e.QPNum]; wasReaped {
				// Stale completion for a connection reaped mid-flight.
				continue
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: completion for unknown QP %d", ErrBlockCorrupt, e.QPNum)
			}
			continue
		}
		if e.Status != rdma.StatusOK {
			conn.fail(fmt.Errorf("recv completion status %d", e.Status))
			continue
		}
		if err := conn.handleRequestBlock(e.ImmData, e.ByteLen); err != nil {
			conn.fail(err)
			if firstErr == nil {
				firstErr = conn.broken
			}
			continue
		}
		events++
		if err := conn.qp.PostRecv(rdma.RecvWR{}); err != nil {
			conn.fail(err)
		}
	}
	// Flush all connections: collect completed duplex work, seal partial
	// response blocks, and transmit. Broken connections are reaped after
	// reporting their sticky error once — the poller and its other
	// connections keep running.
	for qpNum, conn := range sp.conns {
		if conn.broken == nil && conn.qp.Dead() {
			// The peer's QP died while this side was idle: with nothing to
			// post, no ErrClosed would ever surface, and the connection (and
			// its share of the poller's CQ budget) would leak. Fail it so
			// the reap below reclaims it.
			conn.fail(fmt.Errorf("peer QP closed"))
		}
		conn.drainSendCQ(sp.cqes)
		if conn.duplex != nil {
			conn.dxProgress()
		}
		conn.flushPartial()
		conn.trySendResponses()
		if conn.broken != nil {
			if firstErr == nil {
				firstErr = conn.broken
			}
			sp.reap(qpNum, conn)
		}
	}
	return events, firstErr
}

// ResponsePending returns the number of requests inside the duplex
// response pipeline (queued, building, or awaiting commit) across all
// connections.
func (sp *ServerPoller) ResponsePending() int {
	n := 0
	for _, conn := range sp.conns {
		n += conn.dxInflight + len(conn.dxBacklog)
	}
	return n
}

// waitBudget bounds the idle blocking wait by the tightest commit-batch
// deadline across connections, so partially-filled response batches seal
// near their CommitFlushTimeout instead of sleeping out the full
// WaitTimeout. May return <= 0, degrading the wait to a non-blocking poll.
func (sp *ServerPoller) waitBudget() time.Duration {
	w := sp.cfg.WaitTimeout
	now := int64(0)
	for _, conn := range sp.conns {
		if conn.cfg.CommitBatch <= 1 || conn.cur == nil ||
			conn.cur.msgs == 0 || conn.cur.pending > 0 {
			continue
		}
		if now == 0 {
			now = nowNS()
		}
		remain := time.Duration(conn.cur.firstAt +
			conn.cfg.CommitFlushTimeout.Nanoseconds() - now)
		if remain < w {
			w = remain
		}
	}
	return w
}

// Wake makes the poller's blocking wait in Progress return at once (or its
// next one, if it is busy); see ClientConn.Wake. Safe from any goroutine.
func (sp *ServerPoller) Wake() { sp.recvCQ.Kick() }

// WakeGauges returns the atomic mirrors of Counters.Wake*. Safe to read from
// any goroutine.
func (sp *ServerPoller) WakeGauges() *WakeGauges { return &sp.wakes }

// Drain runs the poller until every live connection has no buffered or
// in-flight response work — send queues empty, no open partial block, no
// duplex work pending — or the allowed time expires (ErrDrainTimeout).
// Broken connections are skipped (their work can never drain; their sticky
// errors stay observable via Broken). Owner-only.
func (sp *ServerPoller) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		for _, conn := range sp.conns {
			if conn.broken != nil {
				continue
			}
			if len(conn.sendQ) > 0 || (conn.cur != nil && conn.cur.msgs > 0) ||
				conn.dxInflight > 0 || len(conn.dxBacklog) > 0 {
				idle = false
				break
			}
		}
		if idle {
			return nil
		}
		if time.Now().After(deadline) {
			return ErrDrainTimeout
		}
		// Draining: force partial batches out instead of waiting out their
		// CommitFlushTimeout (pending slots still hold their block).
		for _, conn := range sp.conns {
			if conn.broken == nil && (conn.cur == nil || conn.cur.pending == 0) {
				conn.sealResp(flushExplicit)
			}
		}
		if _, err := sp.Progress(); err != nil && !errors.Is(err, ErrConnBroken) {
			return err
		}
	}
}

// Close stops the duplex worker pools (if any) and shuts down the shared
// receive CQ so a poller goroutine blocked in Wait wakes immediately
// instead of finishing its timeout.
func (sp *ServerPoller) Close() {
	sp.recvCQ.Shutdown()
	sp.admitPending()
	for _, conn := range sp.conns {
		conn.duplex.close()
	}
}
