// Package rpcrdma implements the paper's RPC-over-RDMA protocol (Secs. III
// and IV): the custom host<->DPU protocol that carries *deserialized*
// objects through a shared address space, so the receiving side never runs
// a deserializer.
//
// Both directions speak one block format, implemented once (engine.go): a
// sender and a receiver, embedded in ClientConn (the DPU side) and
// ServerConn (the host side), which add only what differs by direction.
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
//     sender.canSend and sender.maybeSeal).
//   - Implicit acknowledgments (Sec. IV-B), piggybacked in both directions
//     as a counter in the next preamble. A block becomes acknowledgeable
//     once every message in it is answered (in receive order), which
//     generalizes the paper's first-response rule so that background
//     handlers (Sec. III-D) can keep reading a block after its first
//     response leaves. Under a low workload the client flushes
//     acknowledgments no request would carry in an empty block (the
//     deadlock-avoidance flush of Sec. IV).
//   - Deterministic request IDs from a 2^16 pool, never transmitted with
//     requests: both sides replay the same free-then-allocate sequence in
//     RC order (Sec. IV-D).
//   - One host response pipeline (handler, reserve, build, commit): by
//     default the server poller is its only worker, foreground execution
//     (Sec. III-D); with Config.HostWorkers > 1 its stages run on a worker
//     pool, the background execution Sec. III-D designs for, and responses
//     complete out of order. Client pollers own one connection each, server
//     pollers may share several over one completion queue (Sec. III-C).
//   - Object-payload responses (header flag): the response-serialization
//     offload of Sec. III-A, where the host ships a response object through
//     the shared region and the DPU produces the wire bytes.
//   - Reserve/Commit/Cancel in both directions: slots are reserved in
//     order, built anywhere, and committed in any order, so payload builds
//     scale across cores while QP/CQ state stays single-threaded.
//   - Event-driven pollers: without BusyPoll a poller with nothing to do
//     sleeps on its receive CQ (the poll() path of Sec. III-C) and is woken
//     by the next completion or by Wake, which producers ring after handing
//     it work through any other queue; WaitTimeout is only the idle
//     heartbeat. Per-block state is recycled through owner-private free
//     lists, so the smaller blocks that prompt wake-ups cost no
//     allocations.
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
	// HostWorkers (server side) is how many worker goroutines run the host
	// response pipeline's handler and build stages. At 0 or 1 the poller
	// runs them itself (foreground execution); above 1 they run on the
	// pool, which is background RPC execution (Sec. III-D): slots are
	// reserved as handlers finish, and blocks transmit once every slot in
	// them commits. Handlers may read their payload views for their whole
	// run. A failed build is committed as an error tombstone (status 13,
	// error flag set) instead of breaking the connection.
	HostWorkers int
	// RequestTimeout (client side) bounds each request from enqueue to
	// response. Expired requests fail with a typed error response
	// (Response.LocalErr == ErrRequestTimeout); a response that arrives
	// after its request was reaped is discarded. Zero disables deadlines
	// (the default — request IDs for responses that never arrive are
	// parked until the late response lands, so only enable this on
	// connections that can actually lose traffic, i.e. under fault
	// injection).
	RequestTimeout time.Duration
	// Faults, when non-nil and enabled, injects faults into this side's
	// outbound RDMA operations (see internal/fault). Both sides default to
	// nil; with no injector the datapath is byte-identical to an
	// injector-free build. A deployment runs connection i on a copy with i
	// added to Seed.
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

	// Seal reasons. Every message-carrying block seals for exactly one of
	// these (ack-only blocks count in none), so their sum tracks BlocksSent
	// net of AckOnlyBlocks and retried posts. The event loop's per-pass
	// seal is the only seal policy, so FlushBatch and FlushTimer are always
	// zero; they stay for readers that sum all four.
	FlushFull     uint64 // block hit BlockSize (or an oversized message)
	FlushBatch    uint64 // always zero
	FlushTimer    uint64 // always zero
	FlushExplicit uint64 // the per-pass seal, Flush/Drain or teardown

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
	// GatherBytes counts payload bytes posted by reference from caller
	// memory (Gather): they reached the fabric without a copy into the
	// send buffer.
	GatherBytes uint64

	// Poller wake-ups: why each blocking wait on the receive CQ returned
	// (all zero under BusyPoll, which never blocks). On the server side they
	// belong to the poller, not to a connection: see ServerPoller.Counters.
	// A loaded stack wakes on completions and kicks; WakeTimer per request
	// near or above one means requests are waiting out WaitTimeout.
	WakeCQE   uint64 // a completion arrived
	WakeKick  uint64 // a producer rang Wake (submitted call, host worker completion, Close)
	WakeTimer uint64 // WaitTimeout elapsed
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
