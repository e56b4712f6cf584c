package rpcrdma

import (
	"errors"
	"runtime"
	"slices"
	"sync"

	"dpurpc/internal/arena"
	"dpurpc/internal/rdma"
	"dpurpc/internal/trace"
)

// Every host request takes one pipeline, the response direction's
// counterpart of the client's Reserve/Commit split. A request flows
//
//	poller: message    → dxRun (stage dxHandle)
//	run:    handler    → dxDone
//	poller: dxReserve  → reserveResponse in completion order → dxRun (stage dxBuild)
//	run:    spec.Build → dxDone
//	poller: dxDone     → Commit (or error tombstone)
//
// With Config.HostWorkers > 1, dxRun hands each stage to a pool of worker
// goroutines, which return it through doneQ (Sec. III-D background
// execution: a long-running RPC holds back no other response), while the
// poller thread owns every QP/CQ/allocator mutation. Otherwise the pool has
// no workers and the poller runs every stage inline: foreground execution,
// where the handler runs and its slot is reserved during the block walk,
// and a request nothing waits ahead of never queues.
//
// Reservations follow handler completion order (dxReady), so a slow handler
// holds back no other response; commits follow build completion, safe because
// a slot's position is fixed at reserve and trySend stalls on blocks
// with pending slots. Neither order matters to the ID replay: headers carry
// request IDs, and both sides free them in slot order on acknowledgment.

// duplexBuildFailed is the status a failed response build is tombstoned
// with, and the status of the refusal that answers a response no block can
// hold. Mirrors xrpc.StatusInternal (rpcrdma deliberately does not import
// xrpc).
const duplexBuildFailed uint16 = 13

type respStage uint8

const (
	dxHandle respStage = iota // run the handler, producing a ResponseSpec
	dxBuild                   // build the payload into the reserved slot
)

// respTask carries one request through the pipeline. It lives in exactly
// one place at a time (the backlog, taskQ, a worker, doneQ, dxReady, or the
// poller's free list dxFree), so its fields need no locking.
type respTask struct {
	id    uint16
	req   Request
	stage respStage
	spec  ResponseSpec
	res   *Reservation
	root  uint32
	used  int
	err   error
	tr    *trace.Active // trace handle (nil when untraced)
}

// duplexPool runs handler and build stages. With workers, channel
// capacities equal the connection's in-flight bound (dxMax), and the poller
// admits at most that many tasks, so no send on taskQ or doneQ ever blocks.
// After each doneQ send the worker kicks wake — the poller's receive CQ — so
// a poller asleep with work in flight commits the completion at once.
type duplexPool struct {
	handler Handler
	taskQ   chan *respTask // nil when the poller runs every stage itself
	doneQ   chan *respTask
	wake    *rdma.CQ
	wg      sync.WaitGroup
	closed  bool
}

// newDuplexPool starts workers goroutines, or none when workers ≤ 1.
func newDuplexPool(workers, maxInflight int, h Handler, wake *rdma.CQ) *duplexPool {
	p := &duplexPool{handler: h, wake: wake}
	if workers > 1 {
		p.taskQ = make(chan *respTask, maxInflight)
		p.doneQ = make(chan *respTask, maxInflight)
		p.wg.Add(workers)
		for i := 0; i < workers; i++ {
			go p.worker(i + 1)
		}
	}
	return p
}

// run runs t's stage; wid is its lane in trace output and in
// Request.Worker (0 = the poller, 1..N = worker i).
func (p *duplexPool) run(t *respTask, wid int) {
	if t.stage == dxHandle {
		t.req.Worker = wid
		t.spec = p.handler(t.req)
		return
	}
	var t0 int64
	if t.tr != nil {
		t0 = nowNS()
	}
	t.root, t.used, t.err = t.spec.Build(t.res.Dst, t.res.RegionOff)
	if t.tr != nil {
		t.tr.Span(trace.StageRespBuild, trace.ProcHost, wid, t0, nowNS())
	}
}

func (p *duplexPool) worker(wid int) {
	defer p.wg.Done()
	for t := range p.taskQ {
		p.run(t, wid)
		p.doneQ <- t
		p.wake.Kick()
	}
}

// close stops the workers, if any.
func (p *duplexPool) close() {
	if p.taskQ == nil || p.closed {
		return
	}
	p.closed = true
	close(p.taskQ)
	p.wg.Wait()
}

// dxRun runs t's stage on a worker, or on the poller when the pool has none.
func (s *ServerConn) dxRun(t *respTask) {
	if p := s.duplex; p.taskQ != nil {
		p.taskQ <- t
	} else {
		p.run(t, 0)
		s.dxDone(t)
	}
}

// dxDone takes a finished stage. A handled task reserves its slot, behind
// any that wait for the arena. A build commits, or is tombstoned if it
// failed: the slot is already on the wire path, so the request must still
// be answered. Poller-only.
func (s *ServerConn) dxDone(t *respTask) {
	if t.stage == dxHandle {
		if len(s.dxReady) > 0 || !s.dxReserve(t) {
			s.dxReady = append(s.dxReady, t)
		}
		return
	}
	if r := t.res; t.err != nil {
		s.Counters.DuplexTombstones++
		s.gauges.ResponseBuildFailures.Add(1)
		s.bury(r)
	} else {
		r.h.method, r.h.errFlag, r.h.object = t.spec.Status, t.spec.Err, t.spec.Object
		if err := s.Commit(r, t.root, t.used); err != nil {
			s.fail(err)
		}
	}
	s.dxRetire(t)
}

// dxReserve reserves t's response slot and runs its build; a specless
// response (Build == nil) commits at once. It reports false, leaving t
// unreserved, when the send arena is full: acknowledgments will free
// blocks, and a later pass retries. Poller-only.
func (s *ServerConn) dxReserve(t *respTask) bool {
	r, err := s.reserveResponse(t)
	if err != nil {
		if s.dxFull = errors.Is(err, arena.ErrOutOfMemory); s.dxFull {
			return false
		}
		s.fail(err)
		s.dxRetire(t)
		return true
	}
	if s.dxFull {
		s.dxFull = false
		s.Counters.SendFullRecoveries++
		s.gauges.SendFullRecoveries.Add(1)
	}
	t.res, t.stage = r, dxBuild
	if t.spec.Build != nil {
		s.dxRun(t)
		return true
	}
	clear(r.Dst) // Size zero bytes
	t.used = t.spec.Size
	s.dxDone(t)
	return true
}

// dxRetire ends a task's trip through the pipeline: the poller decrements
// the in-flight count and keeps the task on its free list. Poller-only.
func (s *ServerConn) dxRetire(t *respTask) {
	s.dxInflight--
	*t = respTask{}
	s.dxFree = append(s.dxFree, t)
}

// dxPending is the number of requests admitted but not yet answered.
func (s *ServerConn) dxPending() int { return s.dxInflight + len(s.dxBacklog) }

// dxCollect drains the stages the workers finished and returns how many.
// Only they count in DuplexHandled and DuplexBuilt. Poller-only.
func (s *ServerConn) dxCollect() int {
	drained := 0
	for s.dxInflight > len(s.dxReady) { // a stage is on the pool
		select {
		case t := <-s.duplex.doneQ:
			drained++
			if t.stage == dxHandle {
				s.Counters.DuplexHandled++
			} else if t.err == nil {
				s.Counters.DuplexBuilt++
			}
			s.dxDone(t)
		default:
			return drained
		}
	}
	return drained
}

// dxProgress is the pipeline's per-pass update while requests are pending:
// collect completions, reserve for the handled tasks that wait, refill from
// the backlog, and collect again so a build finishing mid-pass commits
// without waiting a full cycle. Poller-only.
func (s *ServerConn) dxProgress() {
	drained := s.dxCollect()
	n := 0
	for n < len(s.dxReady) && s.dxReserve(s.dxReady[n]) {
		n++
	}
	s.dxReady = slices.Delete(s.dxReady, 0, n)
	for len(s.dxBacklog) > 0 && s.dxInflight < s.dxMax {
		t := s.dxBacklog[0]
		s.dxBacklog = s.dxBacklog[0:copy(s.dxBacklog, s.dxBacklog[1:])]
		s.dxInflight++
		s.dxRun(t)
	}
	drained += s.dxCollect()
	if drained == 0 && s.dxInflight > 0 {
		// Stages are mid-run on workers, or waiting for the arena; yield
		// so the workers or the peer can run (single-CPU CI).
		runtime.Gosched()
	}
}
