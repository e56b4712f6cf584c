package rpcrdma

import (
	"errors"
	"fmt"
	"sync"
	"time"

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
	// Gather names payload ranges the block's post takes from caller memory
	// instead of from the slot (sender.Gather): Build leaves those bytes of
	// Dst unwritten. The poller registers them when it reserves the slot,
	// before Build runs, so a build on a duplex worker never touches the
	// block. Offsets increase and ranges do not overlap. Src must stay
	// unchanged until the response has posted, and it may alias the
	// request's payload: the slot's commit copies the ranges in unless its
	// block is the next to post (committed).
	Gather []Segment
}

// Segment is one gathered range of a response payload: Src stands in for
// Dst[Off:Off+len(Src)].
type Segment struct {
	Off int
	Src []byte
}

// Handler processes one request, in the poller thread (foreground execution,
// Sec. III-D) or on a duplex worker (Config.HostWorkers).
type Handler func(Request) ResponseSpec

// ServerConn is the host-side endpoint of one connection. The embedded
// sender carries response blocks, the embedded receiver walks request
// blocks; what is the server's own is request-ID binding on receipt and
// freeing on acknowledgment and the response pipeline.
type ServerConn struct {
	sender
	receiver
	pool *idPool
	// idScratch holds the IDs the request walk binds for the block being
	// walked; handlers cannot reenter the walk, so it is reused per block.
	idScratch []uint16
	// reqBlockOf maps each in-flight request ID to its block's tracker: the
	// block is acknowledged (via the next response preamble) once every
	// request in it has been answered.
	reqBlockOf map[uint16]*inBlock

	// duplex runs the response pipeline's stages: on Config.HostWorkers
	// worker goroutines when that is > 1, else on the poller. The poller
	// reserves slots as handlers finish (dxReady) and commits them as builds
	// complete. See duplex.go.
	duplex     *duplexPool
	dxReady    []*respTask
	dxInflight int
	dxBacklog  []*respTask
	dxMax      int
	// dxFull is set while dxReady's head waits for the send arena.
	dxFull bool
	// dxFree holds retired tasks for reuse (dxRetire, message).
	dxFree []*respTask

	// traceOf caches the resolved trace handle of each in-flight traced
	// request ID (nil when untraced).
	traceOf map[uint16]*trace.Active

	// recvPosts is the number of receive WRs this connection committed
	// against the poller's shared CQ; the poller reclaims that budget when
	// it reaps the connection after a break.
	recvPosts int
}

// newServerConn builds the host endpoint. wakeCQ is the poller's shared
// receive CQ, which the duplex workers ring when they queue a completion.
func newServerConn(cfg Config, qp *rdma.QP, sendCQ, wakeCQ *rdma.CQ, sbuf []byte, rbuf *rdma.MR, h Handler, recvPosts int) (*ServerConn, error) {
	s := &ServerConn{
		pool:       newIDPool(),
		reqBlockOf: make(map[uint16]*inBlock),
		recvPosts:  recvPosts,
	}
	s.response, s.padShort, s.holdStalled = true, true, true
	s.tombstone = header{method: duplexBuildFailed, errFlag: true}
	if err := s.sender.init(cfg, qp, sendCQ, sbuf, s); err != nil {
		return nil, err
	}
	if err := s.receiver.init(rbuf, &s.sender, s, recvPosts); err != nil {
		return nil, err
	}
	if cfg.Tracer != nil {
		s.traced = true
		s.traceOf = make(map[uint16]*trace.Active)
	}
	s.dxMax = 4 * max(cfg.HostWorkers, 1)
	s.duplex = newDuplexPool(cfg.HostWorkers, s.dxMax, h, wakeCQ)
	return s, nil
}

// reserveResponse claims the response slot of t's request sized for its
// spec, and stamps the spec's SG framing on it. A response no block can
// hold is replaced by its refusal. The slot joins the current block in call
// order (any order keeps the ID replay contract, see duplex.go); the block
// transmits only after every reserved slot commits. Poller-only.
func (s *ServerConn) reserveResponse(t *respTask) (*Reservation, error) {
	var t0 int64
	if t.tr != nil {
		t0 = nowNS()
	}
	r, err := s.reserve(t.spec.Size)
	if err != nil && errors.Is(err, ErrTooLargeForBuffer) {
		t.spec = refusal(err)
		r, err = s.reserve(t.spec.Size)
	}
	if err != nil {
		return nil, err
	}
	r.h.reqID = t.id
	r.b.ids = append(r.b.ids, t.id)
	r.SG, r.SGSegs, r.SGBytes = t.spec.SG, t.spec.SGSegs, t.spec.SGBytes
	for _, g := range t.spec.Gather {
		s.Gather(r, g.Off, g.Src)
	}
	if t.tr != nil {
		t.tr.Span(trace.StageRespReserve, trace.ProcHost, 0, t0, nowNS())
	}
	return r, nil
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

// committed marks the slot's request answered, which may make its request
// block acknowledgeable. The acknowledgment rides the next block to post.
// A slot whose holes may name that request block (an echo) keeps them only
// if its own block is that one, so the client hears the request block is
// free only from the post that has read it. A slot behind sealed blocks
// first sends them (sendAhead); if a credit or an unfinished head holds
// them back, it copies its holes in now. Either way it answers at commit,
// before its own block posts, so liveness rule (a) holds as for every
// other slot.
func (s *ServerConn) committed(r *Reservation, t0 int64) {
	id := r.h.reqID
	if s.traceOf != nil {
		if act := s.traceOf[id]; act != nil {
			act.Span(trace.StageRespCommit, trace.ProcHost, 0, t0, nowNS())
		}
	}
	if len(r.b.holes) > 0 && !s.nextToPost(r.b) {
		if s.sendAhead(r.b); !s.nextToPost(r.b) {
			s.fillHoles(r)
		}
	}
	if ib := s.reqBlockOf[id]; ib != nil {
		delete(s.reqBlockOf, id)
		s.answer(ib)
	}
}

func (s *ServerConn) cancelled(*Reservation, bool) {}

func (s *ServerConn) bind(*block) bool { return true }

// unbind has nothing to rewind: response IDs are frees, applied only on the
// client's receipt.
func (s *ServerConn) unbind(*block) {}

// sent records the doorbell span of traced responses.
func (s *ServerConn) sent(b *block, t0, t1 int64) {
	if s.traceOf == nil {
		return
	}
	for _, id := range b.ids {
		if act := s.traceOf[id]; act != nil {
			act.Span(trace.StageRespDoorbell, trace.ProcHost, 0, t0, t1)
			delete(s.traceOf, id)
		}
	}
}

// acked frees the request IDs a response block answered, in slot order —
// the order the client frees them at its next send.
func (s *ServerConn) acked(b *block) {
	for _, id := range b.ids {
		s.pool.Free(id)
	}
}

// reclaim cannot wait: the poller's other connections share its thread.
func (s *ServerConn) reclaim(int) (*block, error) { return nil, errSendFull }

// admit binds the block's request IDs, mirroring the client's allocation at
// send, and tracks the block until every request in it is answered.
func (s *ServerConn) admit(ib *inBlock, msgs int) error {
	ids := s.idScratch[:0]
	for i := 0; i < msgs; i++ {
		id, err := s.pool.Alloc()
		if err != nil {
			return err
		}
		ids = append(ids, id)
		s.reqBlockOf[id] = ib
	}
	s.idScratch = ids
	ib.remaining += msgs
	return nil
}

// message runs one request through the response pipeline: its handler runs
// on the poller or on a duplex worker. The whole block is processed before
// its responses flush, which is what makes first-response acknowledgment
// safe (Sec. IV-B).
func (s *ServerConn) message(i int, h header, payload []byte, regionOff uint64) error {
	var reqT0 int64
	if s.traceOf != nil {
		reqT0 = nowNS()
	}
	var t *respTask
	if n := len(s.dxFree); n > 0 {
		t = s.dxFree[n-1]
		s.dxFree = s.dxFree[:n-1]
	} else {
		t = new(respTask)
	}
	t.id = s.idScratch[i]
	s.Counters.RequestsReceived++
	t.req = Request{
		Method:    h.method,
		ID:        t.id,
		Payload:   payload,
		RegionOff: regionOff,
		Root:      h.rootOff,
		SG:        h.sg,
	}
	// Resolve the propagated trace ID: the client published it in the
	// shared table under the request ID this side just replayed.
	if s.traceOf != nil && s.traceTab != nil {
		if tid := s.traceTab[t.id].Load(); tid != 0 {
			if act := s.cfg.Tracer.Lookup(tid); act != nil {
				t.req.Trace, t.tr = tid, act
				s.traceOf[t.id] = act
				act.Span(trace.StageHostDispatch, trace.ProcHost, 0, reqT0, nowNS())
			}
		}
	}
	// The payload view outlives sibling responses: the block is
	// acknowledged only once every request in it is answered. The backlog
	// holds requests while others wait there or the in-flight bound is
	// reached, which keeps channel occupancy under the channel capacity.
	if len(s.dxBacklog) > 0 || s.dxInflight >= s.dxMax {
		s.dxBacklog = append(s.dxBacklog, t)
	} else {
		s.dxInflight++
		s.dxRun(t)
	}
	return s.broken
}

func (s *ServerConn) delivered() {}

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

// DeadCounters returns the final endpoint counters of every broken
// connection the poller has reaped — a churn-safe aggregation hook for the
// harnesses. Owner-only (call after the poller goroutine has stopped, or
// from it).
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
		n, why = sp.recvCQ.Wait(sp.cqes, sp.cfg.WaitTimeout)
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
		if err := conn.complete(e); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		events++
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
		if conn.dxPending() > 0 {
			conn.dxProgress()
		}
		conn.maybeSeal()
		conn.trySend()
		conn.refreshGauges(len(conn.reqBlockOf))
		if conn.broken != nil {
			if firstErr == nil {
				firstErr = conn.broken
			}
			sp.reap(qpNum, conn)
		}
	}
	return events, firstErr
}

// ResponsePending returns the number of requests inside the response
// pipeline (backlogged, running, or awaiting a slot or commit) across all
// connections.
func (sp *ServerPoller) ResponsePending() int {
	n := 0
	for _, conn := range sp.conns {
		n += conn.dxPending()
	}
	return n
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
			if len(conn.sendQ) > 0 || (conn.cur != nil && conn.cur.msgs > 0) || conn.dxPending() > 0 {
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
		// Draining: seal open blocks that liveness rule (b) holds while
		// credits are short (pending slots still hold their block).
		for _, conn := range sp.conns {
			if conn.broken == nil && (conn.cur == nil || conn.cur.pending == 0) {
				conn.seal(flushExplicit)
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
