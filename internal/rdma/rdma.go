// Package rdma is an in-process implementation of the libibverbs
// abstractions the paper's protocol is built on (Sec. II-A): protection
// domains, registered memory regions, completion queues with blocking
// completion channels, and reliably-connected queue pairs supporting the
// send/receive and RDMA-write-with-immediate operations.
//
// Semantics reproduced faithfully:
//
//   - Write-with-immediate places bytes directly into the peer's registered
//     memory at a sender-chosen offset, consumes one pre-posted receive WR
//     on the peer (it is a two-sided operation), and delivers a completion
//     carrying 4 bytes of immediate data.
//   - Reliable connections deliver operations in order; the receiver
//     observes memory contents no later than the matching completion.
//   - Posting to a peer with an empty receive queue fails
//     receiver-not-ready (RNR), the failure mode whose avoidance motivates
//     the credit system of Sec. IV-C.
//   - Completion queues have finite depth; overflow is sticky and fatal
//     for the queue, mirroring the "overflowing the RDMA completion queue
//     ... massively reduces performance" warning.
//   - A blocked CQ.Wait is the poll() on the completion channel; CQ.Kick is
//     the eventfd an application adds to the same poll() set so that its own
//     threads can wake the poller.
//
// The "wire" underneath is the simulated PCIe fabric (internal/fabric),
// which accounts every byte for the Fig. 8b bandwidth reproduction.
package rdma

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dpurpc/internal/fabric"
	"dpurpc/internal/fault"
)

// Errors returned by verbs operations.
var (
	ErrRNR         = errors.New("rdma: receiver not ready (no receive WR posted)")
	ErrCQOverflow  = errors.New("rdma: completion queue overflow")
	ErrNotConnect  = errors.New("rdma: queue pair not connected")
	ErrClosed      = errors.New("rdma: queue pair closed")
	ErrOutOfBounds = errors.New("rdma: remote access out of registered bounds")
	ErrRecvQFull   = errors.New("rdma: receive queue full")
	ErrTooLarge    = errors.New("rdma: send payload exceeds receive buffer")
	// ErrOpFault is an injected synchronous post failure (fault.Fail): the
	// operation was rejected before any bytes moved and no completion was
	// generated on either side. Protocol layers may treat it as
	// block-scoped and recoverable.
	ErrOpFault = errors.New("rdma: injected post fault")
)

// Opcode identifies the completed operation.
type Opcode uint8

// Completion opcodes.
const (
	OpSend Opcode = iota + 1
	OpRecv
	OpWriteImm     // sender-side completion of a write-with-immediate
	OpRecvWriteImm // receiver-side completion of a write-with-immediate
)

// Status of a completion.
type Status uint8

// Completion statuses.
const (
	StatusOK Status = iota
	StatusRNR
	StatusErr
)

// CQE is a completion queue entry.
type CQE struct {
	WRID    uint64
	QPNum   uint32
	Opcode  Opcode
	Status  Status
	ImmData uint32
	ByteLen uint32
}

// CQ is a completion queue with a blocking completion channel. Any number
// of goroutines may push completions, Kick and Shutdown; Poll and Wait belong
// to the single goroutine that owns the queue (its poller).
type CQ struct {
	ch       chan CQE
	overflow atomic.Bool
	done     chan struct{}
	doneOnce sync.Once
	// kick is the software wake source that shares the owner's blocking
	// wait with the completion channel — the eventfd in the same poll() set
	// as the ibv_comp_channel. It holds at most one token, so a kick that
	// lands while the owner is busy is remembered until its next Wait.
	kick chan struct{}
	// timer is the owner's reusable wait timer (one per CQ instead of one
	// per Wait), created by the first Wait that has to block.
	timer *time.Timer
}

// Wake says why a Wait returned; pollers count it (Counters.Wake*), which
// is how a timer-bound datapath shows up on /metrics.
type Wake uint8

// Wake reasons.
const (
	// WakeNone: Wait never armed its timer — the timeout was not positive,
	// or the queue is shut down and Wait degraded to a Poll.
	WakeNone Wake = iota
	// WakeCQE: a completion was (or became) available.
	WakeCQE
	// WakeKick: a producer rang Kick.
	WakeKick
	// WakeTimer: the timeout elapsed with nothing to do.
	WakeTimer
)

// NewCQ returns a CQ of the given depth.
func NewCQ(depth int) *CQ {
	return &CQ{ch: make(chan CQE, depth), done: make(chan struct{}), kick: make(chan struct{}, 1)}
}

// Kick makes the owner's current Wait — or, if it is not waiting, its next
// one — return at once. Producers that hand the owner work through some
// other queue ring it after the hand-off, so the owner sleeps on one wake
// source instead of sleeping out its timeout. It never blocks and never
// allocates; kicks coalesce into one token. Safe from any goroutine.
func (cq *CQ) Kick() {
	select {
	case cq.kick <- struct{}{}:
	default:
	}
}

// Shutdown wakes every current and future Wait caller. Completions already
// queued (and any still arriving from in-flight posts) remain pollable:
// after shutdown Wait degrades to a non-blocking Poll, so teardown paths
// stop sleeping out their full WaitTimeout without losing entries.
func (cq *CQ) Shutdown() { cq.doneOnce.Do(func() { close(cq.done) }) }

// push delivers a completion; on overflow the CQ is poisoned.
func (cq *CQ) push(e CQE) error {
	select {
	case cq.ch <- e:
		return nil
	default:
		cq.overflow.Store(true)
		return ErrCQOverflow
	}
}

// Overflowed reports whether the CQ ever overflowed.
func (cq *CQ) Overflowed() bool { return cq.overflow.Load() }

// poison marks the CQ overflowed (sticky, as in Sec. III-C) and wakes any
// blocked waiter so the owner observes the failure promptly. Used by
// injected CQ-overflow faults.
func (cq *CQ) poison() {
	cq.overflow.Store(true)
	cq.Shutdown()
}

// Poll drains up to len(out) completions without blocking and returns the
// count (busy-polling mode, Sec. III-C).
func (cq *CQ) Poll(out []CQE) int {
	n := 0
	for n < len(out) {
		select {
		case e := <-cq.ch:
			out[n] = e
			n++
		default:
			return n
		}
	}
	return n
}

// Wait blocks until at least one completion is available, a producer rings
// Kick, or the timeout elapses, then drains up to len(out) entries and says
// what woke it. This models the poll() system-call path the paper uses to
// avoid 100% CPU under low load. A kick returns whatever completions are
// pollable (possibly none): the caller is expected to look at its other
// queues and come back. Owner-only.
func (cq *CQ) Wait(out []CQE, timeout time.Duration) (int, Wake) {
	if len(out) == 0 {
		return 0, WakeNone
	}
	select {
	case e := <-cq.ch:
		out[0] = e
		return 1 + cq.Poll(out[1:]), WakeCQE
	default:
	}
	if timeout <= 0 {
		return 0, WakeNone
	}
	if cq.timer == nil {
		cq.timer = time.NewTimer(timeout)
	} else {
		cq.timer.Reset(timeout)
	}
	select {
	case e := <-cq.ch:
		cq.stopTimer()
		out[0] = e
		return 1 + cq.Poll(out[1:]), WakeCQE
	case <-cq.kick:
		cq.stopTimer()
		return cq.Poll(out), WakeKick
	case <-cq.timer.C:
		return 0, WakeTimer
	case <-cq.done:
		// Shut down while blocked: drain whatever is pollable and return,
		// so pollers notice teardown immediately instead of sleeping out
		// the timer.
		cq.stopTimer()
		return cq.Poll(out), WakeNone
	}
}

// stopTimer disarms the wait timer and leaves its channel empty for the next
// Reset (the module's go line predates the timers that do this themselves).
func (cq *CQ) stopTimer() {
	if !cq.timer.Stop() {
		select {
		case <-cq.timer.C:
		default:
		}
	}
}

// Device is one RDMA-capable endpoint of the host<->DPU link.
type Device struct {
	Name string
	link *fabric.Link
	out  fabric.Direction
}

// NewDevice returns a device whose outbound traffic is accounted in
// direction out on link.
func NewDevice(name string, link *fabric.Link, out fabric.Direction) *Device {
	return &Device{Name: name, link: link, out: out}
}

// Link returns the underlying fabric link.
func (d *Device) Link() *fabric.Link { return d.link }

// PD is a protection domain grouping MRs and QPs (Sec. II-A).
type PD struct {
	dev *Device
}

// AllocPD allocates a protection domain.
func (d *Device) AllocPD() *PD { return &PD{dev: d} }

// MR is a registered ("pinned") memory region.
type MR struct {
	pd  *PD
	buf []byte
}

// RegisterMR registers buf for local and remote access.
func (pd *PD) RegisterMR(buf []byte) *MR { return &MR{pd: pd, buf: buf} }

// Bytes returns the registered buffer.
func (mr *MR) Bytes() []byte { return mr.buf }

// Len returns the region size.
func (mr *MR) Len() int { return len(mr.buf) }

// RecvWR is a receive work request. Buf receives the payload of two-sided
// Send operations; write-with-immediate consumes the WR without touching
// Buf.
type RecvWR struct {
	WRID uint64
	Buf  []byte
}

// QP is a reliably-connected queue pair.
type QP struct {
	Num    uint32
	pd     *PD
	sendCQ *CQ
	recvCQ *CQ

	recvMu sync.Mutex
	recvQ  []RecvWR
	// recvMR is the region remote write-with-immediate operations land in.
	recvMR *MR

	peer   atomic.Pointer[QP]
	closed atomic.Bool
	// sharedRecvCQ marks recvCQ as shared with other QPs (a poller CQ), in
	// which case Close must not shut it down.
	sharedRecvCQ bool

	rnrCount atomic.Uint64

	// injector, when non-nil, injects faults into this QP's outbound
	// operations (one injection point per QP per direction). Set before
	// traffic starts; nil costs a single pointer test per post.
	injector *fault.Injector
	// line serializes deliveries to the peer when delay injection is
	// active, preserving the in-order guarantee of reliable connections
	// even for delayed operations. nil unless the plan has a DelayRate.
	line     chan delayedOp
	lineDone chan struct{}
	lineOnce sync.Once
	// lineExit closes when the delay line's goroutine returns, after its
	// last delivery has landed (see Quiesce).
	lineExit chan struct{}
}

type delayedOp struct {
	delay time.Duration
	fn    func()
}

var qpCounter atomic.Uint32

// CreateQP creates a queue pair using the given completion queues. recvMR
// is the region exposed for remote writes (the connection's receive
// buffer); it may be nil for control-only QPs.
func (pd *PD) CreateQP(sendCQ, recvCQ *CQ, recvMR *MR) *QP {
	return &QP{
		Num:    qpCounter.Add(1),
		pd:     pd,
		sendCQ: sendCQ,
		recvCQ: recvCQ,
		recvMR: recvMR,
	}
}

// Connect pairs two QPs into a reliable connection.
func Connect(a, b *QP) {
	a.peer.Store(b)
	b.peer.Store(a)
}

// RNRCount returns how many inbound operations failed receiver-not-ready.
func (qp *QP) RNRCount() uint64 { return qp.rnrCount.Load() }

// Dead reports whether this QP or its connected peer has been closed: the
// reliable connection can never carry traffic again. Pollers use it to
// notice peers that died while this side was idle (nothing to post means no
// ErrClosed would ever surface). Safe from any goroutine.
func (qp *QP) Dead() bool {
	if qp.closed.Load() {
		return true
	}
	p := qp.peer.Load()
	return p != nil && p.closed.Load()
}

// MarkSharedRecvCQ tells Close to leave the receive CQ running because
// other QPs complete into it (a server poller's shared CQ).
func (qp *QP) MarkSharedRecvCQ() { qp.sharedRecvCQ = true }

// SetInjector attaches a fault injector to this QP's outbound operations
// (nil detaches). Must be called before traffic starts on the QP.
func (qp *QP) SetInjector(inj *fault.Injector) {
	qp.injector = inj
	if inj != nil && inj.Plan().DelayRate > 0 && qp.line == nil {
		qp.line = make(chan delayedOp, 1024)
		qp.lineDone = make(chan struct{})
		qp.lineExit = make(chan struct{})
		go qp.runDelayLine()
	}
}

// Injector returns the attached fault injector (nil when none).
func (qp *QP) Injector() *fault.Injector { return qp.injector }

// runDelayLine executes deliveries strictly in posting order, sleeping
// before the delayed ones. When the QP closes, queued deliveries are
// flushed without further delay and the goroutine exits.
func (qp *QP) runDelayLine() {
	defer close(qp.lineExit)
	for {
		select {
		case op := <-qp.line:
			if op.delay > 0 {
				t := time.NewTimer(op.delay)
				select {
				case <-t.C:
				case <-qp.lineDone:
					t.Stop()
				}
			}
			op.fn()
		case <-qp.lineDone:
			for {
				select {
				case op := <-qp.line:
					op.fn()
				default:
					return
				}
			}
		}
	}
}

// deliver routes fn through the delay line when one is active (all
// deliveries must share the line to stay FIFO), else runs it inline.
func (qp *QP) deliver(delay time.Duration, fn func()) {
	if qp.line == nil {
		fn()
		return
	}
	select {
	case qp.line <- delayedOp{delay: delay, fn: fn}:
	case <-qp.lineDone:
		// QP closed under us: the wire is gone, drop the delivery.
	}
}

// Close marks the QP unusable, wakes waiters on its completion queues
// (teardown latency must not be bounded by poll timeouts), and stops the
// delay line if one is running.
func (qp *QP) Close() {
	if !qp.closed.CompareAndSwap(false, true) {
		return
	}
	if qp.line != nil {
		qp.lineOnce.Do(func() { close(qp.lineDone) })
	}
	if qp.sendCQ != nil {
		qp.sendCQ.Shutdown()
	}
	if qp.recvCQ != nil && !qp.sharedRecvCQ {
		qp.recvCQ.Shutdown()
	}
}

// Quiesce closes the QP and returns once no operation it posted can still
// write into the peer's registered memory. Close alone does not promise
// that: a delay line flushes the deliveries it holds after Close returns.
// Memory the peer's MR covers may be reused only after both QPs of a
// connection have quiesced (and both owners have stopped posting).
func (qp *QP) Quiesce() {
	qp.Close()
	if qp.lineExit != nil {
		<-qp.lineExit
	}
}

// PostRecv posts a receive work request.
func (qp *QP) PostRecv(wr RecvWR) error {
	if qp.closed.Load() {
		return ErrClosed
	}
	qp.recvMu.Lock()
	defer qp.recvMu.Unlock()
	if len(qp.recvQ) >= cap(qp.recvCQ.ch) {
		// Receive queue deeper than the CQ guarantees overflow; refuse.
		return ErrRecvQFull
	}
	qp.recvQ = append(qp.recvQ, wr)
	return nil
}

// popRecv consumes the oldest receive WR.
func (qp *QP) popRecv() (RecvWR, bool) {
	qp.recvMu.Lock()
	defer qp.recvMu.Unlock()
	if len(qp.recvQ) == 0 {
		return RecvWR{}, false
	}
	wr := qp.recvQ[0]
	copy(qp.recvQ, qp.recvQ[1:])
	qp.recvQ = qp.recvQ[:len(qp.recvQ)-1]
	return wr, true
}

// RecvDepth returns the number of posted receive WRs.
func (qp *QP) RecvDepth() int {
	qp.recvMu.Lock()
	defer qp.recvMu.Unlock()
	return len(qp.recvQ)
}

func (qp *QP) connectedPeer() (*QP, error) {
	if qp.closed.Load() {
		return nil, ErrClosed
	}
	p := qp.peer.Load()
	if p == nil {
		return nil, ErrNotConnect
	}
	if p.closed.Load() {
		return nil, ErrClosed
	}
	return p, nil
}

// PostWriteImm performs an RDMA write-with-immediate from one contiguous
// source: PostWriteImmGather with a one-entry gather list.
func (qp *QP) PostWriteImm(wrID uint64, src []byte, remoteOff uint64, imm uint32) error {
	return qp.PostWriteImmGather(wrID, [][]byte{src}, remoteOff, imm)
}

// PostWriteImmGather performs an RDMA write-with-immediate whose source is
// the concatenation of sgl, in order (a work request's ibv_sge[] list): the
// bytes are copied into the peer's receive MR at remoteOff, one peer receive
// WR is consumed, the peer gets an OpRecvWriteImm completion carrying imm,
// and the sender gets an OpWriteImm completion. The fabric records the
// total length, the same as one contiguous source of that length.
//
// The QP reads the sources only inside this call: once it returns, the
// caller may reuse or release them. A delivery deferred by delay injection
// reads a snapshot taken here.
//
// With a fault injector attached the post may instead fail synchronously
// (ErrOpFault, no completions, no bytes moved), be dropped (sender
// completes, receiver never hears), be delayed (delivered intact and in
// order, late), or poison the receiver's CQ (ErrCQOverflow).
func (qp *QP) PostWriteImmGather(wrID uint64, sgl [][]byte, remoteOff uint64, imm uint32) error {
	peer, err := qp.connectedPeer()
	if err != nil {
		return err
	}
	total := 0
	for _, src := range sgl {
		total += len(src)
	}
	if peer.recvMR == nil || remoteOff+uint64(total) > uint64(len(peer.recvMR.buf)) {
		return fmt.Errorf("%w: off=%d len=%d region=%d", ErrOutOfBounds,
			remoteOff, total, peer.recvMR.Len())
	}
	if inj := qp.injector; inj != nil {
		act, delay := inj.Decide()
		switch act {
		case fault.Fail:
			return fmt.Errorf("%w: write-imm wr %d", ErrOpFault, wrID)
		case fault.Overflow:
			peer.recvCQ.poison()
			return ErrCQOverflow
		case fault.Drop:
			// Lost DMA: the sender believes the write landed; the receiver
			// never consumes a WR, sees no bytes and no completion.
			return qp.sendCQ.push(CQE{WRID: wrID, QPNum: qp.Num,
				Opcode: OpWriteImm, Status: StatusOK, ByteLen: uint32(total)})
		}
		if qp.line != nil {
			// Delay injection active: every delivery rides the FIFO line so
			// delayed and undelayed operations cannot reorder. The line runs
			// after this call has returned, so it delivers a copy.
			img := make([]byte, 0, total)
			for _, src := range sgl {
				img = append(img, src...)
			}
			qp.deliver(delay, func() { _ = qp.deliverWriteImm(peer, wrID, [][]byte{img}, total, remoteOff, imm) })
			return nil
		}
	}
	return qp.deliverWriteImm(peer, wrID, sgl, total, remoteOff, imm)
}

// deliverWriteImm is the delivery half of PostWriteImmGather: consume a peer
// receive WR, place the total bytes of sgl, account them on the fabric, then
// complete both sides. Completing after the copy gives the receiver the
// required memory-visibility ordering.
func (qp *QP) deliverWriteImm(peer *QP, wrID uint64, sgl [][]byte, total int, remoteOff uint64, imm uint32) error {
	wr, ok := peer.popRecv()
	if !ok {
		qp.rnrCount.Add(1)
		_ = qp.sendCQ.push(CQE{WRID: wrID, QPNum: qp.Num, Opcode: OpWriteImm, Status: StatusRNR})
		return ErrRNR
	}
	dst := peer.recvMR.buf[remoteOff:]
	for _, src := range sgl {
		dst = dst[copy(dst, src):]
	}
	qp.pd.dev.link.Record(qp.pd.dev.out, total)
	if err := peer.recvCQ.push(CQE{
		WRID: wr.WRID, QPNum: peer.Num, Opcode: OpRecvWriteImm,
		Status: StatusOK, ImmData: imm, ByteLen: uint32(total),
	}); err != nil {
		return err
	}
	return qp.sendCQ.push(CQE{WRID: wrID, QPNum: qp.Num, Opcode: OpWriteImm,
		Status: StatusOK, ByteLen: uint32(total)})
}

// PostSend performs a two-sided send: the payload is copied into the buffer
// of the peer's oldest receive WR.
func (qp *QP) PostSend(wrID uint64, src []byte) error {
	peer, err := qp.connectedPeer()
	if err != nil {
		return err
	}
	wr, ok := peer.popRecv()
	if !ok {
		qp.rnrCount.Add(1)
		_ = qp.sendCQ.push(CQE{WRID: wrID, QPNum: qp.Num, Opcode: OpSend, Status: StatusRNR})
		return ErrRNR
	}
	if len(src) > len(wr.Buf) {
		return ErrTooLarge
	}
	copy(wr.Buf, src)
	qp.pd.dev.link.Record(qp.pd.dev.out, len(src))
	if err := peer.recvCQ.push(CQE{
		WRID: wr.WRID, QPNum: peer.Num, Opcode: OpRecv,
		Status: StatusOK, ByteLen: uint32(len(src)),
	}); err != nil {
		return err
	}
	return qp.sendCQ.push(CQE{WRID: wrID, QPNum: qp.Num, Opcode: OpSend,
		Status: StatusOK, ByteLen: uint32(len(src))})
}
