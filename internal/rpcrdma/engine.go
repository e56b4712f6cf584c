package rpcrdma

import (
	"errors"
	"fmt"
	"sync/atomic"

	"dpurpc/internal/arena"
	"dpurpc/internal/fault"
	"dpurpc/internal/rdma"
	"dpurpc/internal/trace"
)

// The block engine. Both directions of a connection speak one block format
// (Sec. IV): a preamble, 8-aligned message slots, 1 KiB-aligned placement,
// credits, and acknowledgments piggy-backed in the preamble. One sender and
// one receiver implement it; ClientConn and ServerConn each embed one of
// both and add only what their direction does differently, through the
// outbound and inbound hooks they install at construction.

// block is an outgoing block under construction, queued, or sent and awaiting
// the peer's acknowledgment. Blocks are recycled through sender.freeBlocks
// (newBlock / recycle), so a block and its slices are allocated once per slot
// of in-flight depth, not once per block sent.
type block struct {
	off      uint64 // send-buffer offset (== the peer's receive-buffer offset, mirrored)
	buf      []byte // send-buffer slice, cap = allocated size
	used     int
	msgs     int      // reserved slots, committed or not
	pending  int      // reserved slots whose payload is still being built
	ids      []uint16 // request IDs of the slots, in slot order (bound at reserve or at send)
	seq      uint32   // assigned at send
	sealedAt int64    // when the block entered the send queue (deadline reaping)
	// Request blocks only, parallel to the slots: continuations and trace
	// handles (nil when untraced).
	conts []func(Response)
	trs   []*trace.Active
	// res holds each slot's Reservation, reused by the block's later
	// tenants: a reservation is spent once committed or cancelled, before
	// its block can be recycled or its slot reserved again.
	res []*Reservation
	// holes are the byte ranges of buf that post gathers from caller memory
	// instead (Gather), in block order; sgl is post's gather-list scratch.
	holes []hole
	sgl   [][]byte
}

// hole stands caller memory in for buf[at:at+len(src)] when the block posts.
type hole struct {
	slot int // the reservation's slot index, so a cancel drops its holes
	at   int
	src  []byte
}

// reservation returns the Reservation storage of slot idx.
func (b *block) reservation(idx int) *Reservation {
	if idx == len(b.res) {
		b.res = append(b.res, new(Reservation))
	}
	return b.res[idx]
}

// Reservation is a slot in an outgoing block, handed out by Reserve (or the
// host's response path) and finished by Commit or Cancel. Between the two,
// Dst may be filled from any goroutine (it is a disjoint slice of the send
// buffer); every other interaction with the reservation must come from the
// connection's owner.
type Reservation struct {
	// Dst is the reserved payload slot (len == the reserved size). Reused
	// blocks carry stale bytes: the builder is responsible for every byte
	// it declares used (arena.Bump zeroes its allocations).
	Dst []byte
	// RegionOff is the region offset of Dst[0] in this direction's shared
	// address space.
	RegionOff uint64
	// SG, set by the owner before Commit, stamps the scatter-gather flag
	// on the message header: the payload starts with a descriptor table
	// and carries bulk bytes in dedicated segments. SGSegs/SGBytes feed
	// the endpoint counters.
	SG      bool
	SGSegs  int
	SGBytes int

	b      *block
	idx    int
	hdrPos int
	size   int
	h      header // method or status, request ID and flags; lengths are set at commit
	done   bool
}

// flushReason classifies why a block sealed; each maps to one Counters
// field so a run can see where doorbells came from.
type flushReason uint8

const (
	flushExplicit flushReason = iota // the per-pass seal, Flush/Drain or teardown
	flushFull                        // block hit BlockSize (or an oversized message)
)

func (ct *Counters) countFlush(reason flushReason) {
	if reason == flushFull {
		ct.FlushFull++
	} else {
		ct.FlushExplicit++
	}
}

// outbound is what one side adds to its sender. ClientConn and ServerConn
// install themselves once, at construction, so a hook call allocates nothing.
type outbound interface {
	bind(b *block) bool                  // ready a sealed block for the wire, or say it must wait
	unbind(b *block)                     // undo bind after the wire rejected the post
	sent(b *block, t0, t1 int64)         // after a post; t0, t1 bracket the doorbell when traced
	acked(b *block)                      // the peer consumed b; it is freed next
	cancelled(r *Reservation, tail bool) // after a tail rollback, or before an interior tombstone
	committed(r *Reservation, t0 int64)  // after the header write; t0 when the commit began (traced)
	reclaim(slot int) (*block, error)    // wait for arena memory a transmit pass could not free
}

// sender is one direction's outbound half: the send arena, slot layout, the
// seal policy, credits, acknowledgment piggy-backing and the post with its
// fault retry.
type sender struct {
	cfg    Config
	qp     *rdma.QP
	sendCQ *rdma.CQ
	sbuf   []byte
	alloc  *arena.Allocator
	out    outbound

	// Per-direction policy, fixed at construction (DESIGN.md §4).
	// response stamps the header direction flag and names the counter of
	// messages sent. padShort makes an interior slot built short declare
	// its exact length plus pad instead of its reserved size with a
	// zeroed tail. holdStalled keeps a partial block open while it could
	// not be sent (liveness rule (b)). tombstone is the header status of a
	// cancelled interior slot.
	response    bool
	padShort    bool
	holdStalled bool
	tombstone   header
	traced      bool // time doorbells for sent's trace spans

	// traceTab is the out-of-band trace-ID table the two sides share,
	// indexed by request ID (see Connect); nil when untraced.
	traceTab []atomic.Uint64

	credits int
	seq     uint32
	// acks counts inbound blocks the peer may reuse but has not been told
	// about: the receiver's ack prefix, stamped into the next preamble.
	acks uint16

	cur        *block
	sendQ      []*block
	unacked    []*block // FIFO of sent, not-yet-acknowledged blocks
	freeBlocks []*block
	// clean is the prefix of sbuf cleared of an earlier connection's bytes
	// (takeBlock).
	clean int

	// injector is this side's outbound fault injector (nil when disabled).
	injector *fault.Injector
	// broken is the sticky connection error, written only by fail() on the
	// owner goroutine; brokenMirror republishes it for Broken.
	broken       error
	brokenMirror atomic.Pointer[error]

	// Flight recorder (Config.FlightRecorder > 0): the event ring, the
	// per-connection dump budget, and the last dump for other goroutines.
	fr        *FlightRecorder
	dumpsLeft int
	lastDump  atomic.Pointer[FlightDump]

	gauges ConnGauges

	// pair is the connection's buffers, shared with the other end
	// (Recycle).
	pair *connPair

	// Counters instrument the endpoint.
	Counters Counters
}

// init sets the sender up over sbuf and reserves the arena's offset 0:
// region offsets must never be 0 (NullRef), and the guard also keeps bucket
// 0 unambiguous.
func (s *sender) init(cfg Config, qp *rdma.QP, sendCQ *rdma.CQ, sbuf []byte, out outbound) error {
	s.cfg, s.qp, s.sendCQ, s.sbuf, s.out = cfg, qp, sendCQ, sbuf, out
	s.alloc = arena.NewAllocator(uint64(len(sbuf)))
	s.credits = cfg.Credits
	s.Counters.MinCreditsSeen = uint64(cfg.Credits)
	if cfg.FlightRecorder > 0 {
		s.fr = NewFlightRecorder(cfg.FlightLabel, cfg.FlightRecorder)
		s.dumpsLeft = maxFlightDumps
	}
	_, err := s.alloc.Alloc(BlockAlign, BlockAlign)
	s.refreshGauges(0)
	return err
}

// Credits returns the current send-credit count.
func (s *sender) Credits() int { return s.credits }

// Broken returns the sticky connection error, if any. Safe from any
// goroutine: it reads an atomic mirror of the owner-written field.
func (s *sender) Broken() error {
	if e := s.brokenMirror.Load(); e != nil {
		return *e
	}
	return nil
}

// FaultInjector returns the fault injector attached to this side's QP, nil
// when fault injection is disabled.
func (s *sender) FaultInjector() *fault.Injector { return s.injector }

// MaxPayload returns the largest payload size a reservation can ever place:
// one slot filling the whole send buffer behind the NullRef guard at offset
// 0 and the block preamble.
func (s *sender) MaxPayload() int {
	return (len(s.sbuf) - BlockAlign - PreambleSize - HeaderSize) &^ 7
}

// fail makes err the sticky connection error, dumps the flight recorder and
// closes the QP: the peer observes ErrClosed on its next post instead of
// waiting out its timeouts, and waiters on this side's own CQs wake at once.
func (s *sender) fail(err error) {
	if s.broken == nil {
		s.broken = fmt.Errorf("%w: %w", ErrConnBroken, err)
		s.brokenMirror.Store(&s.broken)
		s.fr.Record(FlightBroken, 0, 0)
		s.dumpFlight("connection broken: " + err.Error())
		s.qp.Close()
	}
}

// maxFlightDumps bounds the black-box dumps one connection will emit, so a
// flapping connection under sustained chaos cannot flood the sink.
const maxFlightDumps = 8

// dumpFlight snapshots the flight recorder and publishes the dump: the last
// one is kept for LastFlightDump, and Config.FlightSink (when set) gets every
// dump up to the per-connection cap. Owner-only; no-op when recording is off.
func (s *sender) dumpFlight(reason string) {
	if s.fr == nil || s.dumpsLeft <= 0 {
		return
	}
	s.dumpsLeft--
	d := s.fr.dump(reason)
	s.lastDump.Store(&d)
	if s.cfg.FlightSink != nil {
		s.cfg.FlightSink(d)
	}
}

// newBlock allocates a block sized for at least firstSlot payload-slot bytes.
func (s *sender) newBlock(firstSlot int) (*block, error) {
	size := s.cfg.BlockSize
	if need := PreambleSize + firstSlot; need > size {
		// Oversized message: a dedicated single-message block (Sec. IV).
		size = need
	}
	off, err := s.alloc.Alloc(uint64(size), BlockAlign)
	if err != nil {
		return nil, err
	}
	return s.takeBlock(off, size), nil
}

// takeBlock returns an empty block over size bytes of send buffer at off,
// reusing a recycled struct (and its slices' capacity) when one is free.
//
// A send buffer recycled from an earlier connection holds that connection's
// bytes (bufcache.go). The first block to reach past clean clears the
// stretch up to its end, so below clean the buffer holds zeros and bytes
// this connection wrote, as a fresh one would: a byte a block transmits
// without writing it (a slot's alignment pad, an arena.Bump alignment gap)
// never depends on which connection had the memory before.
func (s *sender) takeBlock(off uint64, size int) *block {
	if end := int(off) + size; end > s.clean {
		clear(s.sbuf[s.clean:end])
		s.clean = end
	}
	var b *block
	if n := len(s.freeBlocks); n > 0 {
		b = s.freeBlocks[n-1]
		s.freeBlocks = s.freeBlocks[:n-1]
	} else {
		b = &block{}
	}
	b.off, b.buf, b.used = off, s.sbuf[off:off+uint64(size)], PreambleSize
	return b
}

// recycle parks a block whose send-buffer memory has just been freed. It is
// reset, and its pointer slices cleared, so it pins no continuation, trace
// handle or gathered caller memory, and its next tenant observes nothing of
// the previous one.
func (s *sender) recycle(b *block) {
	clear(b.conts)
	clear(b.trs)
	clear(b.holes)
	clear(b.sgl)
	*b = block{ids: b.ids[:0], conts: b.conts[:0], trs: b.trs[:0], res: b.res,
		holes: b.holes[:0], sgl: b.sgl}
	s.freeBlocks = append(s.freeBlocks, b)
}

// errSendFull fails a reservation the send arena stayed too full for; owners'
// backpressure checks match either wrapped sentinel.
var errSendFull = fmt.Errorf("%w: %w", ErrSendBufferFull, arena.ErrOutOfMemory)

// reserve claims the next slot of the current block for a payload of size
// bytes. The slot's header is not written, and the block cannot transmit,
// until the reservation is committed or cancelled. Slots are laid out in
// call order.
func (s *sender) reserve(size int) (*Reservation, error) {
	if s.broken != nil {
		return nil, s.broken
	}
	slot := slotSize(size)
	if size > s.MaxPayload() {
		return nil, fmt.Errorf("%w: need %d bytes", ErrTooLargeForBuffer, slot)
	}
	if s.cur != nil && s.cur.used+slot > len(s.cur.buf) {
		s.seal(flushFull)
	}
	if s.cur == nil {
		b, err := s.newBlock(slot)
		if err != nil {
			// The arena is full because acknowledgments are in flight:
			// transmit what is queued, retry, then let the side wait.
			s.trySend()
			if b, err = s.newBlock(slot); err != nil {
				if b, err = s.out.reclaim(slot); err != nil {
					return nil, err
				}
			}
		}
		s.cur = b
	}
	b := s.cur
	hdrPos := b.used
	b.used = hdrPos + HeaderSize + alignUp(size)
	b.pending++
	idx := b.msgs
	b.msgs++
	s.fr.Record(FlightReserve, int64(size), int64(idx))
	r := b.reservation(idx)
	*r = Reservation{
		Dst:       b.buf[hdrPos+HeaderSize : hdrPos+HeaderSize+size],
		RegionOff: b.off + uint64(hdrPos+HeaderSize),
		b:         b,
		idx:       idx,
		hdrPos:    hdrPos,
		size:      size,
		h:         header{response: s.response},
	}
	return r, nil
}

// Gather has the block's post read r.Dst[off:off+len(src)] from src instead
// of from the send buffer: the bytes reach the peer as one more entry of the
// post's gather list, never copied into the slot. The slot's bytes there are
// left as they are and never sent. src must stay valid and unchanged until
// the block has posted (the QP reads it only inside the post), or until r is
// cancelled or its block reaped or aborted, which drop the hole unread.
// Holes are given in increasing block order — a reservation's in increasing
// off, before the next reservation's — and do not overlap. Owner-only,
// between Reserve and Commit.
func (s *sender) Gather(r *Reservation, off int, src []byte) {
	if len(src) > 0 {
		r.b.holes = append(r.b.holes, hole{slot: r.idx, at: r.hdrPos + HeaderSize + off, src: src})
	}
}

// Commit finishes a reservation: it writes the message header and releases
// the slot's hold on block transmission. used is the payload bytes built
// (<= the reserved size): a block's last slot shrinks to it, an interior
// slot keeps its stride. A failed commit spends the reservation as Cancel
// would, so its block never waits on it. Owner-only.
func (s *sender) Commit(r *Reservation, root uint32, used int) error {
	if r.done {
		return errors.New("rpcrdma: reservation already committed or cancelled")
	}
	if s.broken != nil {
		s.Cancel(r)
		return s.broken
	}
	if used > r.size {
		s.Cancel(r)
		return fmt.Errorf("%w: build used %d > reserved %d", ErrPayloadSize, used, r.size)
	}
	return s.commit(r, root, used)
}

func (s *sender) commit(r *Reservation, root uint32, used int) error {
	var t0 int64
	if s.traced {
		t0 = nowNS()
	}
	b := r.b
	h := r.h
	h.payloadLen, h.rootOff, h.sg = uint32(used), root, r.SG
	payload := r.hdrPos + HeaderSize
	if len(b.holes) > 0 {
		s.clipHoles(r, payload+used)
	}
	end := payload + alignUp(r.size)
	if end == b.used {
		// Last slot of the block: shrink the block to the bytes used.
		end = payload + alignUp(used)
		b.used = end
	} else if used < r.size {
		// Interior slot: later reservations fixed its stride. Keep the
		// receiver's walk aligned by declaring either the reserved size or
		// the exact length plus pad.
		if !s.padShort {
			h.payloadLen = uint32(r.size)
		} else {
			h.pad = uint32(alignUp(r.size) - alignUp(used))
			if h.pad/8 > 0xFFFF {
				r.done = true
				b.pending--
				err := fmt.Errorf("rpcrdma: slot pad %d exceeds the wire format", h.pad)
				s.fail(err)
				return err
			}
		}
	}
	// The slot transmits up to end. Clear what the build did not write, so
	// the wire bytes never depend on what an earlier block left there.
	clear(b.buf[payload+used : end])
	putHeader(b.buf[r.hdrPos:], h)
	if r.SG {
		s.Counters.SGMessagesSent++
		s.Counters.SGSegmentsSent += uint64(r.SGSegs)
		s.Counters.SGBytesSent += uint64(r.SGBytes)
	}
	r.done = true
	b.pending--
	s.fr.Record(FlightCommit, int64(used), int64(h.method))
	s.out.committed(r, t0)
	if b == s.cur && b.pending == 0 && b.used >= s.cfg.BlockSize {
		s.seal(flushFull)
	}
	return nil
}

// clipHoles keeps r's holes inside the end its commit declares used: the
// bytes past it are cleared or not sent, as copied-in bytes would be.
func (s *sender) clipHoles(r *Reservation, end int) {
	b := r.b
	kept := b.holes[:0]
	for _, h := range b.holes {
		if h.slot == r.idx && h.at+len(h.src) > end {
			h.src = h.src[:max(end-h.at, 0)]
		}
		if len(h.src) > 0 {
			kept = append(kept, h)
		}
	}
	clear(b.holes[len(kept):])
	b.holes = kept
}

// fillHoles copies r's holes into its slot and drops them: the block then
// sends those bytes from the send buffer, as if the build had written them.
func (s *sender) fillHoles(r *Reservation) {
	b := r.b
	kept := b.holes[:0]
	for _, h := range b.holes {
		if h.slot == r.idx {
			copy(b.buf[h.at:], h.src)
		} else {
			kept = append(kept, h)
		}
	}
	clear(b.holes[len(kept):])
	b.holes = kept
}

// nextToPost reports whether b is the block the next post sends: the send
// queue's head, or the open block when nothing is queued. Blocks post in
// queue order, so once true this stays true until b posts.
func (s *sender) nextToPost(b *block) bool {
	if len(s.sendQ) > 0 {
		return s.sendQ[0] == b
	}
	return s.cur == b
}

// Cancel abandons a reservation. The last slot of the open block is rolled
// back entirely; any other slot cannot move, so it is committed empty as a
// tombstone carrying the direction's cancel status (CancelledMethod on
// requests, an error status on responses). Must be called by the
// connection's owner.
func (s *sender) Cancel(r *Reservation) {
	if r.done {
		return
	}
	b := r.b
	if s.broken != nil {
		r.done = true
		b.pending--
		return
	}
	s.fr.Record(FlightCancel, int64(r.size), 0)
	if len(b.holes) > 0 {
		s.clipHoles(r, r.hdrPos) // a cancelled slot sends none of its holes
	}
	if b == s.cur && r.idx == b.msgs-1 && r.hdrPos+HeaderSize+alignUp(r.size) == b.used {
		r.done = true
		b.pending--
		b.used = r.hdrPos
		b.msgs--
		if len(b.ids) > r.idx {
			b.ids = b.ids[:r.idx]
		}
		s.out.cancelled(r, true)
		return
	}
	s.out.cancelled(r, false)
	s.bury(r)
}

// bury commits r empty, as a tombstone carrying the direction's cancel
// status: the peer answers or skips it, and the slot keeps its stride.
func (s *sender) bury(r *Reservation) {
	r.h.method, r.h.errFlag, r.h.object = s.tombstone.method, s.tombstone.errFlag, false
	r.SG, r.SGSegs, r.SGBytes = false, 0, 0
	_ = s.Commit(r, 0, 0) // fails only by failing the connection
}

// seal moves the current block to the send queue.
func (s *sender) seal(reason flushReason) {
	b := s.cur
	if b == nil || b.msgs == 0 {
		return
	}
	if b.used < s.cfg.BlockSize {
		s.Counters.PartialFlushes++
	}
	s.Counters.countFlush(reason)
	s.fr.Record(FlightSeal, int64(reason), int64(b.msgs))
	if s.cfg.RequestTimeout > 0 {
		b.sealedAt = nowNS()
	}
	s.sendQ = append(s.sendQ, b)
	s.cur = nil
}

// maybeSeal is the one seal policy: the event loop seals the open partial
// block once per pass (Nagle-style batching, Sec. IV); a block with a slot
// still building waits for the pass after its last commit. With
// holdStalled a block that could not be sent stays open (liveness rule
// (b)): messages coalesce into it instead of each stranding a BlockSize of
// send arena.
func (s *sender) maybeSeal() {
	b := s.cur
	if b == nil || b.msgs == 0 || b.pending > 0 || (s.holdStalled && !s.canSend()) {
		return
	}
	s.seal(flushExplicit)
}

// canSend applies liveness rule (a) (Sec. VI-A): a block that acknowledges
// nothing may not take the last credit. One that acknowledges something
// returns a credit to the peer, which then owes an acknowledgment of its
// own, so both sides can never sit at zero credits with acks owed.
func (s *sender) canSend() bool {
	return s.credits > 1 || (s.credits == 1 && s.acks > 0)
}

// trySend transmits queued blocks in order while credits allow. A head
// block with a slot still building stalls the queue: transmission order
// must match reservation order (the deterministic ID replay of Sec. IV-D).
func (s *sender) trySend() { s.sendAhead(nil) }

// sendAhead is trySend stopping before block stop, if queued; only a stall
// of the whole queue (stop == nil) is counted.
func (s *sender) sendAhead(stop *block) {
	for len(s.sendQ) > 0 && s.sendQ[0] != stop {
		if !s.canSend() {
			if stop == nil {
				s.Counters.CreditStalls++
				s.fr.Record(FlightCreditStall, int64(len(s.sendQ)), 0)
			}
			return
		}
		b := s.sendQ[0]
		if b.pending > 0 {
			if stop == nil {
				s.Counters.PipelineStalls++
			}
			return
		}
		if !s.post(b) {
			return
		}
		s.sendQ = s.sendQ[0:copy(s.sendQ, s.sendQ[1:])]
	}
}

// post stamps b's preamble, with every pending acknowledgment, writes it to
// the peer, and reports whether it went out. A post the wire rejected before
// any bytes moved (rdma.ErrOpFault) is rolled back, so the next pass retries
// the block verbatim; requests stuck behind it are reaped at their deadline.
func (s *sender) post(b *block) bool {
	if !s.out.bind(b) {
		return false
	}
	ack := s.acks
	s.acks = 0
	b.seq = s.seq
	putPreamble(b.buf, preamble{
		msgCount:  uint16(b.msgs),
		ackBlocks: ack,
		blockLen:  uint32(b.used),
		seq:       b.seq,
	})
	var t0, t1 int64
	if s.traced {
		t0 = nowNS()
	}
	if err := s.qp.PostWriteImmGather(uint64(b.seq), b.gatherList(), b.off, uint32(b.off/BlockAlign)); err != nil {
		if errors.Is(err, rdma.ErrOpFault) {
			s.out.unbind(b)
			s.acks += ack
			s.Counters.SendFaultRetries++
			s.gauges.SendFaultRetries.Add(1)
			s.fr.Record(FlightSendRetry, int64(b.seq), 0)
			return false
		}
		s.fail(err)
		return false
	}
	if s.traced {
		t1 = nowNS()
	}
	s.out.sent(b, t0, t1)
	s.seq++
	s.credits--
	if uint64(s.credits) < s.Counters.MinCreditsSeen {
		s.Counters.MinCreditsSeen = uint64(s.credits)
	}
	s.Counters.BlocksSent++
	if s.response {
		s.Counters.ResponsesSent += uint64(b.msgs)
	} else {
		s.Counters.RequestsSent += uint64(b.msgs)
	}
	s.Counters.PayloadBytesSent += uint64(b.used)
	for _, h := range b.holes {
		s.Counters.GatherBytes += uint64(len(h.src))
	}
	// Posted: the QP has read the holes' sources, and nothing may again.
	clear(b.holes)
	clear(b.sgl)
	b.holes = b.holes[:0]
	if b.msgs == 0 {
		s.Counters.AckOnlyBlocks++
		s.fr.Record(FlightAckOnly, int64(ack), 0)
	} else {
		s.fr.Record(FlightSend, int64(b.seq), int64(b.used))
	}
	s.unacked = append(s.unacked, b)
	return true
}

// gatherList returns the block image as a gather list: buf[:used], with
// every hole's range taken from its source instead. The list is block-owned
// scratch, rebuilt at each post (a faulted post is retried verbatim).
func (b *block) gatherList() [][]byte {
	sgl, pos := b.sgl[:0], 0
	for _, h := range b.holes {
		sgl = append(sgl, b.buf[pos:h.at], h.src)
		pos = h.at + len(h.src)
	}
	b.sgl = append(sgl, b.buf[pos:b.used])
	return b.sgl
}

// ack frees the n oldest unacknowledged blocks: the peer has consumed them
// (the implicit acknowledgment of Sec. IV-B).
func (s *sender) ack(n int) error {
	for i := 0; i < n; i++ {
		if len(s.unacked) == 0 {
			return fmt.Errorf("%w: ack for no outstanding block", ErrBlockCorrupt)
		}
		b := s.unacked[0]
		s.out.acked(b)
		if err := s.alloc.Free(b.off); err != nil {
			return err
		}
		s.credits++
		s.Counters.BlocksAcked++
		s.unacked = s.unacked[0:copy(s.unacked, s.unacked[1:])]
		s.recycle(b)
	}
	return nil
}

// drainSendCQ consumes local send completions (buffer bookkeeping only:
// block memory is recycled on acknowledgment, not on send completion).
func (s *sender) drainSendCQ(cqes []rdma.CQE) {
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

// ConnGauges are atomic occupancy mirrors of one connection endpoint, which
// its owner refreshes once per Progress pass for cross-goroutine samplers
// (/gauges, /metrics).
type ConnGauges struct {
	ArenaInUse    atomic.Uint64 // send-arena bytes in use (incl. SG segments)
	ArenaSize     atomic.Uint64 // send-arena capacity
	SendQueued    atomic.Int64  // sealed blocks waiting for credits/IDs
	PartialMsgs   atomic.Int64  // messages in the open partial block
	Unacked       atomic.Int64  // sent blocks awaiting acknowledgment
	Outstanding   atomic.Int64  // requests in flight on the endpoint
	Credits       atomic.Int64  // current send credits
	CreditStalls  atomic.Uint64 // mirrors Counters.CreditStalls
	AckOnlyBlocks atomic.Uint64 // mirrors Counters.AckOnlyBlocks
	AcksPending   atomic.Int64  // inbound blocks processed but not yet acknowledged
	GatherBytes   atomic.Uint64 // mirrors Counters.GatherBytes
	Wakes         WakeGauges    // client wake reasons (a server poller keeps its own)
	// The failure counters are bumped where their Counters field is, not
	// refreshed per pass: a fault-free pass stores nothing.
	SendFaultRetries     atomic.Uint64 // mirrors Counters.SendFaultRetries
	RequestsTimedOut     atomic.Uint64 // mirrors Counters.RequestsTimedOut
	LateResponsesDropped atomic.Uint64 // mirrors Counters.LateResponsesDropped
	SendFullRecoveries   atomic.Uint64 // mirrors Counters.SendFullRecoveries
	// ResponseBuildFailures mirrors Counters.DuplexTombstones.
	ResponseBuildFailures atomic.Uint64
}

// Gauges returns the endpoint's atomic occupancy mirrors. Safe to read from
// any goroutine; values refresh once per Progress pass.
func (s *sender) Gauges() *ConnGauges { return &s.gauges }

// refreshGauges mirrors owner-private occupancy into the atomics.
func (s *sender) refreshGauges(outstanding int) {
	g := &s.gauges
	g.ArenaInUse.Store(s.alloc.InUse())
	g.ArenaSize.Store(s.alloc.Size())
	g.SendQueued.Store(int64(len(s.sendQ)))
	partial := 0
	if s.cur != nil {
		partial = s.cur.msgs
	}
	g.PartialMsgs.Store(int64(partial))
	g.Unacked.Store(int64(len(s.unacked)))
	g.Outstanding.Store(int64(outstanding))
	g.Credits.Store(int64(s.credits))
	g.CreditStalls.Store(s.Counters.CreditStalls)
	g.AckOnlyBlocks.Store(s.Counters.AckOnlyBlocks)
	g.AcksPending.Store(int64(s.acks))
	g.GatherBytes.Store(s.Counters.GatherBytes)
}

// inbound is what one side adds to its receiver, installed at construction
// like outbound.
type inbound interface {
	// admit runs once a block's acknowledgments are applied, before its
	// messages: the server binds their request IDs here and adds them to
	// ib's unanswered count.
	admit(ib *inBlock, msgs int) error
	// message takes the i-th message of the block, its header validated
	// and its payload inside the block.
	message(i int, h header, payload []byte, regionOff uint64) error
	// delivered follows the walk of a whole block.
	delivered()
}

// inBlock tracks one received block until it may be acknowledged: until
// its walk has finished and every message in it has been answered.
type inBlock struct {
	remaining int
}

// receiver is one direction's inbound half: it locates, checks and walks a
// block, applies its acknowledgments to the sender, yields each message to
// the side, and counts the acknowledgment prefix.
type receiver struct {
	rbuf      *rdma.MR
	tx        *sender
	in        inbound
	expectSeq uint32 // next inbound sequence number
	// open holds received blocks not yet acknowledgeable, in receive order;
	// freeOpen recycles their trackers.
	open     []*inBlock
	freeOpen []*inBlock
}

// answer records one completion against ib (a message answered, or the
// walk finished) and advances the acknowledgment prefix: leading blocks
// with nothing left are counted into the sender's acks, in receive order,
// so the peer frees its oldest blocks first.
func (rx *receiver) answer(ib *inBlock) {
	ib.remaining--
	for len(rx.open) > 0 && rx.open[0].remaining == 0 {
		rx.freeOpen = append(rx.freeOpen, rx.open[0])
		rx.open = rx.open[0:copy(rx.open, rx.open[1:])]
		rx.tx.acks++
	}
}

// init posts the receive WRs inbound blocks consume.
func (rx *receiver) init(rbuf *rdma.MR, tx *sender, in inbound, recvPosts int) error {
	rx.rbuf, rx.tx, rx.in = rbuf, tx, in
	for i := 0; i < recvPosts; i++ {
		if err := tx.qp.PostRecv(rdma.RecvWR{WRID: uint64(i)}); err != nil {
			return err
		}
	}
	return nil
}

// complete handles one receive completion — an inbound block — and reposts
// the receive WR it consumed. Any error fails the connection and is
// returned as the sticky error.
func (rx *receiver) complete(e rdma.CQE) error {
	err := rx.walk(e)
	if err == nil {
		err = rx.tx.qp.PostRecv(rdma.RecvWR{})
	}
	if err != nil {
		rx.tx.fail(err)
		return rx.tx.broken
	}
	return nil
}

// walk processes the inbound block a receive completion located by its
// bucket immediate.
func (rx *receiver) walk(e rdma.CQE) error {
	tx := rx.tx
	if tx.broken != nil {
		return tx.broken
	}
	if e.Status != rdma.StatusOK {
		return fmt.Errorf("recv completion status %d", e.Status)
	}
	off := uint64(e.ImmData) * BlockAlign
	if off+uint64(e.ByteLen) > uint64(rx.rbuf.Len()) {
		return fmt.Errorf("%w: bucket %d beyond receive buffer", ErrBlockCorrupt, e.ImmData)
	}
	blk := rx.rbuf.Bytes()[off : off+uint64(e.ByteLen)]
	p, err := parsePreamble(blk)
	if err != nil {
		return err
	}
	// Reliable connections deliver in order: a gap is a lost block, which
	// would desynchronize the ID replay and misdeliver every later message.
	if p.seq != rx.expectSeq {
		tx.fr.Record(FlightSeqGap, int64(p.seq), int64(rx.expectSeq))
		return fmt.Errorf("%w: block seq %d, expected %d", ErrSeqGap, p.seq, rx.expectSeq)
	}
	rx.expectSeq++
	if err := tx.ack(int(p.ackBlocks)); err != nil {
		return err
	}
	var ib *inBlock
	if n := len(rx.freeOpen); n > 0 {
		ib = rx.freeOpen[n-1]
		rx.freeOpen = rx.freeOpen[:n-1]
	} else {
		ib = &inBlock{}
	}
	ib.remaining = 1 // the walk itself
	rx.open = append(rx.open, ib)
	if err := rx.in.admit(ib, int(p.msgCount)); err != nil {
		return err
	}
	// Messages from the peer carry the opposite direction flag.
	wantResponse := !tx.response
	end := int(p.blockLen)
	pos := PreambleSize
	for i := 0; i < int(p.msgCount); i++ {
		if pos+HeaderSize > end {
			return fmt.Errorf("%w: header %d beyond block", ErrBlockCorrupt, i)
		}
		h, err := parseHeader(blk[pos:])
		if err != nil {
			return err
		}
		if h.response != wantResponse {
			return fmt.Errorf("%w: header %d has the wrong direction flag", ErrBlockCorrupt, i)
		}
		slot := (uint64(h.payloadLen)+7)&^7 + uint64(h.pad)
		if slot > uint64(end-pos-HeaderSize) {
			return fmt.Errorf("%w: message %d beyond block", ErrBlockCorrupt, i)
		}
		payload := blk[pos+HeaderSize : pos+HeaderSize+int(h.payloadLen)]
		if h.sg {
			// A torn or forged descriptor table must never reach a reader:
			// validate before the side sees the payload.
			if err := ValidateSGTable(payload); err != nil {
				return err
			}
			tx.Counters.SGMessagesReceived++
		}
		if err := rx.in.message(i, h, payload, off+uint64(pos+HeaderSize)); err != nil {
			return err
		}
		pos += HeaderSize + int(slot)
	}
	tx.Counters.BlocksReceived++
	tx.fr.Record(FlightRecvBlock, int64(p.seq), int64(p.msgCount))
	rx.in.delivered()
	rx.answer(ib)
	return nil
}
