// Package rpcrdma implements the paper's RPC-over-RDMA protocol (Secs. III
// and IV): the custom host<->DPU protocol that carries *deserialized*
// objects through a shared address space, so the receiving side never runs
// a deserializer.
//
// Protocol features implemented:
//
//   - Nagle-style batching of messages into blocks written with a single
//     RDMA write-with-immediate (Sec. IV); partial blocks are flushed by the
//     event loop so low load does not deadlock.
//   - Blocks are allocated at 1024-byte alignment from the send buffer by
//     an offset-based allocator (internal/arena, emulating the Vulkan
//     Memory Allocator); the immediate data carries the block's bucket, and
//     the receiver locates the block at offset = bucket * 1024 in its
//     mirrored receive buffer (Sec. IV-E).
//   - Credit-based congestion control, one credit per in-flight block per
//     direction (Sec. IV-C), kept live by two rules (Sec. VI-A, see
//     ServerConn.canSend and flushPartial).
//   - Implicit acknowledgments (Sec. IV-B), piggybacked in both directions:
//     the client acks response blocks with a counter in the preamble of its
//     next request block, and the server acks request blocks with a counter
//     in the preamble of its next response block. The server's counter
//     advances once every request of a block is answered (in receive
//     order), which generalizes the paper's first-response rule so that
//     background handlers (Sec. III-D) can keep reading a block after its
//     first response leaves. Under a low workload, pending acks that no
//     request traffic would carry are flushed in an empty block by the
//     event loop (the deadlock-avoidance flush of Sec. IV).
//   - Deterministic request IDs from a 2^16 pool, never transmitted with
//     requests: both sides replay the same free-then-allocate sequence in
//     RC order (Sec. IV-D).
//   - Foreground execution: handlers run in the server poller thread
//     (Sec. III-D); client pollers own one connection each, server pollers
//     may share several over one completion queue (Sec. III-C). Background
//     execution — the extension Sec. III-D designs for — is the duplex
//     pool (Config.HostWorkers > 1); responses complete out of order.
//   - Object-payload responses (header flag): the response-serialization
//     offload of Sec. III-A, where the host ships a response object through
//     the shared region and the DPU produces the wire bytes.
//   - Duplex pipelining: the client side reserves request slots, builds
//     payloads on worker goroutines, and commits in admission order
//     (Reserve/Commit/Cancel); the server side mirrors it for responses
//     (ReserveResponse/CommitResponse/CancelResponse, enabled by
//     Config.HostWorkers > 1), so both directions scale across cores while
//     QP/CQ state stays single-threaded.
//   - Event-driven pollers: without BusyPoll a poller with nothing to do
//     sleeps on its receive CQ (the poll() path of Sec. III-C) and is woken
//     by the next completion or by Wake, which producers ring after handing
//     it work through any other queue; WaitTimeout is only the idle
//     heartbeat. Per-block state (blocks, their parallel slices, request-
//     block trackers) is recycled through owner-private free lists, so the
//     smaller blocks that prompt wake-ups produce cost no allocations.
package rpcrdma

import (
	"sync/atomic"
	"time"

	"dpurpc/internal/fault"
	"dpurpc/internal/rdma"
	"dpurpc/internal/trace"
)

// Table I configuration parameters.
const (
	// DefaultBlockSize is the target (minimum) block size; 8 KiB gives the
	// highest throughput in the paper's sweep (Sec. VI-A).
	DefaultBlockSize = 8 * 1024
	// DefaultCredits is the per-connection, per-direction block budget.
	DefaultCredits = 256
	// BlockAlign is the block placement alignment; buckets in the
	// immediate data are offsets divided by this (Sec. IV-E).
	BlockAlign = 1024
	// DefaultClientBufSize is the per-connection send/receive buffer on
	// the client (DPU) side.
	DefaultClientBufSize = 3 * 1024 * 1024
	// DefaultServerBufSize is the per-connection send/receive buffer on
	// the server (host) side.
	DefaultServerBufSize = 16 * 1024 * 1024
	// DefaultConcurrency is the per-connection outstanding-request target
	// used by the benchmarks.
	DefaultConcurrency = 1024
	// DefaultCommitFlushTimeout is the latency cap applied to commit
	// coalescing when Config.CommitBatch > 1 and no explicit timeout is
	// given: a partially filled batch never waits longer than this for
	// more messages before its block seals anyway.
	DefaultCommitFlushTimeout = 50 * time.Microsecond
)

// Config tunes one side of a connection.
type Config struct {
	// BlockSize is the standard block allocation size; messages larger
	// than it get a dedicated single-message block.
	BlockSize int
	// Credits bounds in-flight blocks in the send direction (at least 2).
	Credits int
	// SBufSize is the local send-buffer (and the peer's mirrored
	// receive-buffer) size.
	SBufSize int
	// CQDepth sizes completion queues and the receive queue. It must be
	// at least Credits of the *peer* plus slack so inbound blocks never
	// go receiver-not-ready; Connect enforces this.
	CQDepth int
	// CommitBatch coalesces commits into one doorbell: the event loop
	// holds the current partial block open until it has accumulated this
	// many messages (or CommitFlushTimeout expires), so one RDMA
	// write-with-immediate — one doorbell, one commit barrier — carries a
	// whole run of messages. 0 or 1 keeps the pre-batching behavior of
	// flushing the partial block on every event-loop pass. Batching only
	// changes when blocks seal, never the message order inside them, so
	// the deterministic request-ID replay of Sec. IV-D is unaffected.
	CommitBatch int
	// CommitFlushTimeout caps how long a message may wait for its commit
	// batch to fill, bounding the p99 cost of coalescing at low load.
	// Zero with CommitBatch > 1 selects DefaultCommitFlushTimeout.
	// Ignored when CommitBatch <= 1.
	CommitFlushTimeout time.Duration
	// BusyPoll spins on the CQ instead of sleeping on the completion
	// channel (Sec. III-C: ~10% faster at 100% CPU). Without it the poller
	// sleeps whenever a pass finds nothing to do and is woken by the next
	// completion or by ClientConn.Wake / ServerPoller.Wake, so what busy
	// polling still buys is the wake-up itself (a goroutine hand-off), not
	// a timer.
	BusyPoll bool
	// WaitTimeout is the idle heartbeat when BusyPoll is false: the longest
	// a poller sleeps with nothing to wake it, which bounds how late the
	// deadline reaper and the dead-peer probe run. It is not a latency
	// wherever the producer rings Wake: completions, calls submitted to
	// the DPU, and DPU and host worker completions all end the sleep at
	// once (see offload.DPUServer.wake).
	WaitTimeout time.Duration
	// HostWorkers (server side) > 1 enables the duplex response pipeline,
	// which is also background RPC execution (Sec. III-D): handlers AND
	// response builds run on a pool of that many worker goroutines, slots
	// are reserved as handlers finish, and blocks transmit once every slot
	// in them commits. Handlers may read their payload views for their
	// whole run. A failed build is committed as an error tombstone
	// (status 13, error flag set) instead of breaking the connection.
	HostWorkers int
	// AdmitMaxInflight (server side) > 0 enables admission control on the
	// in-flight axis: once more than this many requests are in flight
	// (received but not yet fully answered and acknowledged), new requests
	// are rejected immediately with StatusUnavailable — before they reach
	// any handler or the response-arena reserve path — so overload degrades
	// into retryable sheds instead of bounded-wait timeouts. 0 (the
	// default) admits everything.
	AdmitMaxInflight int
	// AdmitArenaFrac (server side) > 0 enables admission control on the
	// memory axis: new requests shed with StatusUnavailable while more than
	// this fraction of the response send-arena is in use. 0 disables.
	AdmitArenaFrac float64
	// LatencyObserver, when non-nil, receives the enqueue-to-response
	// latency of every request in nanoseconds (client side). The paper
	// instruments the library itself with a Prometheus client (Sec. VI);
	// plug a metrics.Histogram's Observe here.
	LatencyObserver func(ns float64)
	// RequestTimeout (client side) bounds each request from enqueue to
	// response. Expired requests fail with a typed error response
	// (Response.LocalErr == ErrRequestTimeout); a response that arrives
	// after its request was reaped is discarded. Zero disables deadlines
	// (the default — request IDs for responses that never arrive are
	// parked until the late response lands, so only enable this on
	// connections that can actually lose traffic, i.e. under fault
	// injection).
	RequestTimeout time.Duration
	// SendFullWait (client side) bounds the completion-drain wait Reserve
	// performs when the send arena is exhausted: instead of hard-failing,
	// the connection drains acknowledgments for up to this long, retrying
	// the allocation as blocks free. Zero selects 2*WaitTimeout; negative
	// disables the wait (Reserve fails immediately with ErrSendBufferFull).
	SendFullWait time.Duration
	// Faults, when non-nil and enabled, injects faults into this side's
	// outbound RDMA operations (see internal/fault). Both sides default to
	// nil; with no injector the datapath is byte-identical to an
	// injector-free build.
	Faults *fault.Plan
	// FlightRecorder (client side) > 0 enables the per-connection
	// black-box ring: the last N protocol events (reserves, commits,
	// seals, sends, retries, seq-gaps, timeouts) are retained and dumped
	// automatically when the failure machinery fires — a typed error
	// breaks the connection or the deadline reaper times requests out.
	// 0 (the default) disables it; the hot path then pays one nil check
	// per hook.
	FlightRecorder int
	// FlightLabel names this connection in flight-recorder dumps (e.g.
	// "conn3"). Empty is fine for single-connection setups.
	FlightLabel string
	// FlightSink, when non-nil, receives each flight-recorder dump as it
	// fires. It may be shared across connections and is called from the
	// connection's owner goroutine — it must be safe for concurrent use.
	// Nil keeps dumps retrievable via ClientConn.LastFlightDump only.
	FlightSink func(FlightDump)
	// Tracer, when non-nil, enables span recording for traced requests.
	// Trace IDs ride the deterministic request-ID replay of Sec. IV-D out
	// of band (a shared table indexed by request ID, see Connect), so the
	// wire format is unchanged. On the client side it gates the
	// per-reservation trace bookkeeping; on the server side it resolves
	// propagated IDs (Request.Trace) and records dispatch/reserve/commit/
	// doorbell spans.
	Tracer *trace.Tracer
}

// DefaultClientConfig returns the Table I client (DPU) column.
func DefaultClientConfig() Config {
	return Config{
		BlockSize:   DefaultBlockSize,
		Credits:     DefaultCredits,
		SBufSize:    DefaultClientBufSize,
		CQDepth:     2 * DefaultCredits,
		WaitTimeout: time.Millisecond,
	}
}

// DefaultServerConfig returns the Table I server (host) column.
func DefaultServerConfig() Config {
	return Config{
		BlockSize:   DefaultBlockSize,
		Credits:     DefaultCredits,
		SBufSize:    DefaultServerBufSize,
		CQDepth:     2 * DefaultCredits,
		WaitTimeout: time.Millisecond,
	}
}

// WithDefaults returns a copy of c with zero-valued fields replaced by the
// Table I defaults for the given side.
func (c Config) WithDefaults(client bool) Config {
	c.fillDefaults(client)
	return c
}

func (c *Config) fillDefaults(client bool) {
	if c.BlockSize == 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.Credits == 0 {
		c.Credits = DefaultCredits
	}
	if c.SBufSize == 0 {
		if client {
			c.SBufSize = DefaultClientBufSize
		} else {
			c.SBufSize = DefaultServerBufSize
		}
	}
	if c.CQDepth == 0 {
		c.CQDepth = 2 * c.Credits
	}
	if c.WaitTimeout == 0 {
		c.WaitTimeout = time.Millisecond
	}
	if c.SendFullWait == 0 {
		c.SendFullWait = 2 * c.WaitTimeout
	}
	if c.CommitBatch > 1 && c.CommitFlushTimeout == 0 {
		c.CommitFlushTimeout = DefaultCommitFlushTimeout
	}
}

// Counters instrument one connection endpoint. They are read by the
// metrics layer (the paper instruments the library with a Prometheus
// client, Sec. VI) and by the cost models.
type Counters struct {
	RequestsSent      uint64
	ResponsesReceived uint64
	RequestsReceived  uint64
	ResponsesSent     uint64
	BlocksSent        uint64
	BlocksReceived    uint64
	PayloadBytesSent  uint64
	CreditStalls      uint64 // sends deferred because credits hit zero
	PartialFlushes    uint64 // blocks flushed below the size target
	PipelineStalls    uint64 // sends deferred because a reserved slot was still building
	BlocksAcked       uint64
	AckOnlyBlocks     uint64 // empty blocks sent to carry acknowledgments
	MinCreditsSeen    uint64 // low-water mark of the credit counter
	ErrorsReceived    uint64
	DuplexHandled     uint64 // handler stages completed on the duplex pool
	DuplexBuilt       uint64 // response builds completed on the duplex pool
	DuplexTombstones  uint64 // failed builds committed as error responses

	// Commit-coalescing flush reasons. Every message-carrying block seals
	// for exactly one of these (ack-only blocks count in none), so their
	// sum tracks BlocksSent net of AckOnlyBlocks and retried posts.
	FlushFull     uint64 // block hit BlockSize (or an oversized message)
	FlushBatch    uint64 // batch reached CommitBatch messages
	FlushTimer    uint64 // CommitFlushTimeout expired on a partial batch
	FlushExplicit uint64 // Flush/Drain/teardown, or every-pass flush at CommitBatch <= 1

	// AdmissionSheds counts requests rejected by server-side admission
	// control (AdmitMaxInflight / AdmitArenaFrac) with StatusUnavailable
	// before reaching a handler.
	AdmissionSheds uint64

	// Failure-path counters (all zero unless faults are injected or
	// deadlines enabled).
	SendFaultRetries     uint64 // posts rejected by the wire, rolled back and retried
	RequestsTimedOut     uint64 // requests reaped at RequestTimeout
	LateResponsesDropped uint64 // responses discarded because their request timed out
	SendFullRecoveries   uint64 // arena exhaustions recovered by the bounded drain wait

	// Scatter-gather framing counters (all zero unless SGPayloadMin is
	// configured and payloads cross it).
	SGMessagesSent     uint64 // messages committed with the SG flag
	SGSegmentsSent     uint64 // descriptor-backed segments placed
	SGBytesSent        uint64 // payload bytes carried in segments (never re-copied by the receiver)
	SGMessagesReceived uint64 // inbound messages whose SG table validated

	// Poller wake-ups: why each blocking wait on the receive CQ returned
	// (all zero under BusyPoll, which never blocks). On the server side they
	// belong to the poller, not to a connection: see ServerPoller.Counters.
	// A loaded stack wakes on completions and kicks; WakeTimer per request
	// near or above one means requests are waiting out WaitTimeout.
	WakeCQE   uint64 // a completion arrived
	WakeKick  uint64 // a producer rang Wake (submitted call, host worker completion, Close)
	WakeTimer uint64 // WaitTimeout (or a commit-batch deadline) elapsed
}

// WakeGauges are atomic mirrors of a poller's Counters.Wake* fields, bumped
// together with them, so live scrapers can read the wake-up mix of a running
// poller without touching its owner-only counters.
type WakeGauges struct {
	CQE, Kick, Timer atomic.Uint64
}

// countWake records why a poller's blocking wait returned.
func countWake(ct *Counters, live *WakeGauges, why rdma.Wake) {
	switch why {
	case rdma.WakeCQE:
		ct.WakeCQE++
		live.CQE.Add(1)
	case rdma.WakeKick:
		ct.WakeKick++
		live.Kick.Add(1)
	case rdma.WakeTimer:
		ct.WakeTimer++
		live.Timer.Add(1)
	}
}
