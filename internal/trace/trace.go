// Package trace is a low-overhead, concurrency-safe span recorder for the
// offloaded RPC datapath. Every RPC admitted at the xRPC front end (or
// injected via SubmitLocal) is stamped with a trace ID; each stage it flows
// through — DPU measure/build/commit, PCIe doorbells, host dispatch and
// handler, duplex response build, DPU response serialization — records a
// span against that ID.
//
// Design constraints, in order:
//
//   - Never block the datapath. Recording a span takes one short
//     per-trace mutex (spans for one RPC come from at most two goroutines
//     at a time, so it is effectively uncontended); finishing a trace
//     takes one of 16 shard locks.
//   - Bounded memory. Completed traces land in per-shard ring buffers
//     (Config.RingSize total) and the oldest are overwritten; the number
//     of in-flight traced RPCs is capped (Config.MaxActive). Both kinds
//     of shedding increment drop counters instead of allocating.
//   - Free when off. A nil *Tracer, a disabled one, and a nil *Active are
//     all valid receivers: every method is a cheap no-op, so call sites in
//     the datapath carry no conditionals beyond a pointer test.
//
// Timestamps are absolute nanoseconds from one process-wide clock
// (time.Now().UnixNano()): the repo simulates DPU and host in one process,
// so spans from both "sides" are directly comparable and waits show up as
// gaps between spans.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names. Exported as constants so exporters, the debug endpoints
// and tests agree on spelling. Stages are designed to be non-overlapping
// within one trace: the time not covered by any span is queueing/transfer
// wait and is attributed to named gaps by Breakdown.
const (
	StageMeasure       = "dpu.measure"        // wire-format scan sizing the request
	StageReserve       = "dpu.reserve"        // slot reservation in the RDMA block
	StageBuild         = "dpu.build"          // in-place deserialization into the block
	StageCommit        = "dpu.commit"         // commit of the built request
	StageDoorbell      = "pcie.doorbell"      // request block RDMA write + doorbell
	StageHostDispatch  = "host.dispatch"      // host poller walking the request block
	StageHostHandler   = "host.handler"       // application handler execution
	StageRespReserve   = "host.resp_reserve"  // response slot reservation
	StageRespBuild     = "host.resp_build"    // response serialization into the block
	StageRespCommit    = "host.resp_commit"   // commit of the built response
	StageRespDoorbell  = "pcie.resp_doorbell" // response block RDMA write + doorbell
	StageRespSerialize = "dpu.resp_serialize" // DPU serialization for the TCP wire
	StageDeliver       = "dpu.deliver"        // response handed back to the xRPC client
	StageCacheHit      = "dpu.cache_hit"      // response served from the DPU-resident cache
)

// Processor identifiers for exporters (Chrome trace pid).
const (
	ProcDPU  = 1
	ProcHost = 2
)

// Span is one recorded stage of one RPC. Start and End are absolute
// nanoseconds on the process clock; TID identifies the goroutine lane
// (0 = the poller, 1..N = worker i) within Proc.
type Span struct {
	Stage string
	Proc  int
	TID   int
	Start int64
	End   int64
}

// Trace is one completed RPC.
type Trace struct {
	ID     uint64
	Method string
	Start  int64
	End    int64
	Err    bool
	Spans  []Span
}

// Active is the handle threaded through the datapath for one in-flight
// RPC. All methods are safe on a nil receiver.
type Active struct {
	mu sync.Mutex
	tr Trace
}

// ID returns the trace ID (0 on a nil receiver).
func (a *Active) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.tr.ID
}

// Span records one stage. No-op on a nil receiver or degenerate input.
func (a *Active) Span(stage string, proc, tid int, start, end int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.tr.Spans = append(a.tr.Spans, Span{Stage: stage, Proc: proc, TID: tid, Start: start, End: end})
	a.mu.Unlock()
}

// Now returns the current absolute timestamp used by spans.
func Now() int64 { return time.Now().UnixNano() }

// Config bounds the tracer's memory.
type Config struct {
	// RingSize is the total number of completed traces retained across
	// all shards; older traces are overwritten. Default 4096.
	RingSize int
	// MaxActive caps the number of concurrently traced RPCs; Begin
	// returns nil (and counts a drop) beyond it. Default 16384.
	MaxActive int
}

const tracerShards = 16

type shard struct {
	mu   sync.Mutex
	act  map[uint64]*Active // in-flight traces by ID (Lookup)
	ring []Trace
	next int   // next ring slot to write
	wrap bool  // ring has wrapped at least once
	seen int64 // traces finished into this shard
}

// Tracer hands out trace IDs and collects completed traces into sharded
// ring buffers. All methods are safe on a nil receiver.
type Tracer struct {
	enabled   atomic.Bool
	nextID    atomic.Uint64
	active    atomic.Int64
	maxActive int64
	perShard  int

	started       atomic.Uint64
	finished      atomic.Uint64
	droppedActive atomic.Uint64
	droppedRing   atomic.Uint64

	shards [tracerShards]shard
}

// New builds a Tracer. It starts disabled; call Enable.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 4096
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 16384
	}
	per := (cfg.RingSize + tracerShards - 1) / tracerShards
	if per < 1 {
		per = 1
	}
	t := &Tracer{maxActive: int64(cfg.MaxActive), perShard: per}
	for i := range t.shards {
		t.shards[i].ring = make([]Trace, per)
		t.shards[i].act = make(map[uint64]*Active)
	}
	return t
}

// Enable turns recording on. Safe on nil (no-op).
func (t *Tracer) Enable() {
	if t != nil {
		t.enabled.Store(true)
	}
}

// Disable turns recording off; in-flight traces still finish.
func (t *Tracer) Disable() {
	if t != nil {
		t.enabled.Store(false)
	}
}

// Enabled reports whether Begin currently hands out handles.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Begin starts a trace for one RPC. Returns nil — a valid no-op handle —
// when the tracer is nil, disabled, or at its active cap.
func (t *Tracer) Begin(method string) *Active {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	if t.active.Add(1) > t.maxActive {
		t.active.Add(-1)
		t.droppedActive.Add(1)
		return nil
	}
	t.started.Add(1)
	a := &Active{}
	a.tr.ID = t.nextID.Add(1)
	a.tr.Method = method
	a.tr.Start = Now()
	sh := &t.shards[a.tr.ID%tracerShards]
	sh.mu.Lock()
	sh.act[a.tr.ID] = a
	sh.mu.Unlock()
	return a
}

// Lookup resolves an in-flight trace ID (as propagated out of band through
// the request-ID plumbing) to its handle. Returns nil — a valid no-op
// handle — for unknown or already-finished IDs, or on a nil tracer.
func (t *Tracer) Lookup(id uint64) *Active {
	if t == nil || id == 0 {
		return nil
	}
	sh := &t.shards[id%tracerShards]
	sh.mu.Lock()
	a := sh.act[id]
	sh.mu.Unlock()
	return a
}

// Finish completes a trace and files it into a ring. Safe when t or a is
// nil.
func (t *Tracer) Finish(a *Active, errFlag bool) {
	if t == nil || a == nil {
		return
	}
	t.active.Add(-1)
	t.finished.Add(1)
	a.mu.Lock()
	a.tr.End = Now()
	a.tr.Err = errFlag
	tr := a.tr
	a.mu.Unlock()
	sh := &t.shards[tr.ID%tracerShards]
	sh.mu.Lock()
	delete(sh.act, tr.ID)
	if sh.wrap {
		t.droppedRing.Add(1)
	}
	sh.ring[sh.next] = tr
	sh.next++
	if sh.next == len(sh.ring) {
		sh.next = 0
		sh.wrap = true
	}
	sh.seen++
	sh.mu.Unlock()
}

// Stats is a point-in-time read of the tracer's counters.
type Stats struct {
	Started       uint64 // traces begun
	Finished      uint64 // traces completed into a ring
	DroppedActive uint64 // Begin refused: too many in flight
	DroppedRing   uint64 // completed traces overwritten in a ring
}

// Stats returns drop/throughput counters. Zero value on nil.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started:       t.started.Load(),
		Finished:      t.finished.Load(),
		DroppedActive: t.droppedActive.Load(),
		DroppedRing:   t.droppedRing.Load(),
	}
}

// Snapshot copies out every retained completed trace, oldest first by
// completion time. Nil tracer returns nil.
func (t *Tracer) Snapshot() []Trace {
	return t.collect(false)
}

// Drain is Snapshot plus clearing the rings, so a subsequent Snapshot
// starts empty.
func (t *Tracer) Drain() []Trace {
	return t.collect(true)
}

func (t *Tracer) collect(clearRings bool) []Trace {
	if t == nil {
		return nil
	}
	var out []Trace
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if sh.wrap {
			out = append(out, sh.ring[sh.next:]...)
			out = append(out, sh.ring[:sh.next]...)
		} else {
			out = append(out, sh.ring[:sh.next]...)
		}
		if clearRings {
			for j := range sh.ring {
				sh.ring[j] = Trace{}
			}
			sh.next = 0
			sh.wrap = false
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].End < out[j].End })
	return out
}
