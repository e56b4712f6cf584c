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

// The duplex pipeline parallelizes the response direction the same way the
// client's Reserve/Commit split parallelized requests: worker goroutines
// run the handler and build response payloads, while the poller thread owns
// every QP/CQ/allocator mutation (and long-running RPCs stay off it,
// Sec. III-D). A request flows
//
//	poller: dxAdmit            → workQ (stage dxHandle)
//	worker: run handler        → compQ
//	poller: dxReserveReady     → ReserveResponse in completion order → workQ (stage dxBuild)
//	worker: spec.Build(Dst)    → compQ
//	poller: dxCollect          → CommitResponse (or error tombstone)
//
// Reservations follow handler completion order (dxReady), so a slow handler
// holds back no other response; commits follow build completion, safe because
// a slot's position is fixed at reserve and trySendResponses stalls on blocks
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

// respTask carries one request through the duplex pipeline. It lives in
// exactly one place at a time (workQ, a worker, compQ, or dxReady), so its
// fields need no locking.
type respTask struct {
	id    uint16
	req   Request
	stage respStage
	spec  ResponseSpec
	res   *RespReservation
	root  uint32
	used  int
	err   error
	tr    *trace.Active // trace handle (nil when untraced)
}

// duplexPool runs handler and build stages on worker goroutines. Channel
// capacities equal the connection's in-flight bound (dxMax), and the poller
// admits at most that many tasks, so no send on workQ or compQ ever blocks.
// After each compQ send the worker kicks wake — the poller's receive CQ — so
// a poller asleep with duplex work in flight commits the completion at once.
type duplexPool struct {
	handler Handler
	workQ   chan *respTask
	compQ   chan *respTask
	wake    *rdma.CQ
	wg      sync.WaitGroup
	closed  bool
}

func newDuplexPool(workers, maxInflight int, h Handler, wake *rdma.CQ) *duplexPool {
	p := &duplexPool{
		handler: h,
		wake:    wake,
		workQ:   make(chan *respTask, maxInflight),
		compQ:   make(chan *respTask, maxInflight),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(i + 1)
	}
	return p
}

// worker runs handler and build stages; wid (1..N) is its lane in trace
// output and in Request.Worker.
func (p *duplexPool) worker(wid int) {
	defer p.wg.Done()
	for t := range p.workQ {
		switch t.stage {
		case dxHandle:
			t.req.Worker = wid
			t.spec = p.handler(t.req)
		case dxBuild:
			var t0 int64
			if t.tr != nil {
				t0 = nowNS()
			}
			t.root, t.used, t.err = t.spec.Build(t.res.Dst, t.res.RegionOff)
			if t.tr != nil {
				t.tr.Span(trace.StageRespBuild, trace.ProcHost, wid, t0, nowNS())
			}
		}
		p.compQ <- t
		p.wake.Kick()
	}
}

// close stops the workers; a nil pool (no duplex pipeline) is a no-op.
func (p *duplexPool) close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	close(p.workQ)
	p.wg.Wait()
}

// dxAdmit enters one request into the duplex pipeline, spilling to the
// backlog when the in-flight bound is reached (backpressure keeps channel
// occupancy under the channel capacity). Poller-only.
func (s *ServerConn) dxAdmit(id uint16, req Request) {
	t := &respTask{id: id, req: req, stage: dxHandle}
	if s.traceOf != nil {
		t.tr = s.traceOf[id]
	}
	if s.dxInflight < s.dxMax {
		s.dxInflight++
		s.duplex.workQ <- t
	} else {
		s.dxBacklog = append(s.dxBacklog, t)
	}
}

// dxDispatchBacklog moves backlogged requests into the pool as slots free
// up.
func (s *ServerConn) dxDispatchBacklog() {
	for len(s.dxBacklog) > 0 && s.dxInflight < s.dxMax {
		t := s.dxBacklog[0]
		s.dxBacklog = s.dxBacklog[0:copy(s.dxBacklog, s.dxBacklog[1:])]
		s.dxInflight++
		s.duplex.workQ <- t
	}
}

// dxCollect drains completed stages: handler results queue for
// reservation; finished builds commit (or tombstone on build error — the
// slot is already on the wire path, so the request must still be answered).
// Returns the number of completions drained. Poller-only.
func (s *ServerConn) dxCollect() int {
	drained := 0
	for {
		select {
		case t := <-s.duplex.compQ:
			drained++
			switch t.stage {
			case dxHandle:
				s.Counters.DuplexHandled++
				s.dxReady = append(s.dxReady, t)
			case dxBuild:
				s.dxInflight--
				if t.err != nil {
					s.Counters.DuplexTombstones++
					// Tombstones carry an empty payload: drop the SG framing
					// the spec requested before the failed build.
					t.res.SG, t.res.SGSegs, t.res.SGBytes = false, 0, 0
					if err := s.CommitResponse(t.res, duplexBuildFailed, true, false, 0, 0); err != nil {
						s.fail(err)
					}
					continue
				}
				s.Counters.DuplexBuilt++
				if err := s.CommitResponse(t.res, t.spec.Status, t.spec.Err, t.spec.Object, t.root, t.used); err != nil {
					s.fail(err)
				}
			}
		default:
			return drained
		}
	}
}

// dxReserveReady reserves response slots for finished handlers in the order
// they finished, then hands each build back to the pool. A specless
// response (Build == nil) commits immediately. On send-buffer exhaustion
// the rest wait; client acks will free blocks and a later pass retries.
// Poller-only.
func (s *ServerConn) dxReserveReady() {
	n := 0
	for ; n < len(s.dxReady); n++ {
		t := s.dxReady[n]
		r, err := s.ReserveResponse(t.id, t.spec.Size)
		if errors.Is(err, ErrTooLargeForBuffer) {
			t.spec = refusal(err)
			r, err = s.ReserveResponse(t.id, t.spec.Size)
		}
		if err != nil {
			if errors.Is(err, arena.ErrOutOfMemory) {
				break // retry after acks reclaim blocks
			}
			s.fail(err)
			s.dxInflight--
			continue
		}
		r.SG, r.SGSegs, r.SGBytes = t.spec.SG, t.spec.SGSegs, t.spec.SGBytes
		if t.spec.Build == nil {
			s.dxInflight--
			if err := s.CommitResponse(r, t.spec.Status, t.spec.Err, t.spec.Object, 0, t.spec.Size); err != nil {
				s.fail(err)
			}
			continue
		}
		t.res = r
		t.stage = dxBuild
		s.duplex.workQ <- t
	}
	s.dxReady = slices.Delete(s.dxReady, 0, n)
}

// dxProgress is the per-Progress duplex update: collect completions,
// reserve, refill from the backlog, and collect again so a build
// finishing mid-pass commits without waiting a full cycle. Poller-only.
func (s *ServerConn) dxProgress() {
	drained := s.dxCollect()
	s.dxReserveReady()
	s.dxDispatchBacklog()
	drained += s.dxCollect()
	s.dxReserveReady()
	if drained == 0 && s.dxInflight > 0 {
		// Workers are mid-stage; yield so they can run (single-CPU CI).
		runtime.Gosched()
	}
}
