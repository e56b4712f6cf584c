package offload

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/adt"
	"dpurpc/internal/arena"
	"dpurpc/internal/deser"
	"dpurpc/internal/metrics"
	"dpurpc/internal/rpccache"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/trace"
	"dpurpc/internal/xrpc"
)

// ErrShuttingDown is returned to xRPC calls submitted after Close.
var ErrShuttingDown = errors.New("offload: DPU server shutting down")

// ErrAdmissionShed is the typed cause of requests rejected by the DPU-side
// admission gate (DPUConfig.AdmitMaxInflight): the pipeline is at its
// high-water mark and the request is shed with UNAVAILABLE before it can
// enter the reserve-arena bounded wait.
var ErrAdmissionShed = errors.New("offload: admission control shed")

// ErrReconnectExhausted is the terminal cause when a broken connection's
// redial budget runs out: the server shuts down and every pending request
// fails typed.
var ErrReconnectExhausted = errors.New("offload: reconnect budget exhausted")

// errUnknownMethod is newTask's cause for a method the table lacks.
var errUnknownMethod = errors.New("offload: unknown method")

// DPUStats aggregates the DPU-side work.
type DPUStats struct {
	Requests      uint64
	Responses     uint64
	Errors        uint64
	MeasuredBytes uint64 // wire bytes measured + deserialized
	RespBytes     uint64 // response payload bytes received from the host
	// SerializedBytes counts response bytes the DPU itself serialized
	// (response-serialization offload mode).
	SerializedBytes uint64
	// Reconnects counts broken connections successfully replaced via
	// DPUConfig.Redial; RedialFails counts redial attempts that failed
	// (each doubles the backoff toward the budget); Sheds counts requests
	// rejected by the DPU-side admission gate (AdmitMaxInflight) with
	// UNAVAILABLE.
	Reconnects  uint64
	RedialFails uint64
	Sheds       uint64
	// Response-cache activity on this server (DPUConfig.Cache). Hits are
	// served entirely on the DPU: no scan, no block, no host dispatch.
	// CacheProbeBytes counts request bytes hashed by every probe (hit or
	// miss); CacheHitReqBytes/CacheHitRespBytes count the request and
	// response bytes of hits alone; CacheInsertBytes counts key+value bytes
	// copied into the cache on the way out of the datapath.
	CacheHits         uint64
	CacheMisses       uint64
	CacheProbeBytes   uint64
	CacheHitReqBytes  uint64
	CacheHitRespBytes uint64
	CacheInsertBytes  uint64
	Deser             deser.Stats
}

// Pipeline stages a task moves through.
const (
	stageBuild     = iota // plan fill replaying the notes into the reserved slot
	stageSerialize        // response serialization (or copy-out) on a worker
)

// inflightPerWorker sizes the pipeline: at most this many request tasks per
// worker (per poller, with no workers) are reserved and not yet committed,
// and at most as many responses are on the workers.
const inflightPerWorker = 4

// callTask carries one scanned xRPC request from where it entered to the
// connection's poller, and (with workers) between the poller and the
// workers. Worker-written fields (notes, root, used, err) are synchronized
// by the workQ/compQ channel handoffs. Tasks are pooled per server (newTask,
// recycle).
type callTask struct {
	procID uint16
	entry  *procEntry
	need   int
	notes  *deser.Notes // parse notes from the scan, consumed by the fill
	data   []byte
	to     replier       // where the result goes
	tr     *trace.Active // span recorder handle (nil when untraced)
	// onResp is the OnResponse continuation every reservation registers,
	// bound to this task once, when the pool made it.
	onResp func(rpcrdma.Response)

	// Pipeline fields.
	stage    uint8
	res      *rpcrdma.Reservation
	root     uint32
	used     int
	segs     int // SG payload segments the scan found (0 = inline message)
	segBytes int // 8-aligned bytes of the segment area
	err      error
	finished bool // poller-owned: result decided, ignore later signals
	// onWorker is set from queueWork until the task comes back through compQ
	// (reclaim): a worker may be reading data, so the task must not finish.
	// Poller-owned.
	onWorker bool
	// reserved is the ns timestamp at reserve (or at response dispatch),
	// stamped only for the commit-latency metrics (Pipeline, RespPipeline).
	reserved int64
	admit    int64 // ns timestamp at admission (windowed-latency metric)
	// epoch tags the connection whose resources (reservation or response
	// hold) this task carries; a reconnect bumps the server's epoch so
	// completions for the dead connection are never applied to its
	// replacement.
	epoch uint64

	// Response-pipeline fields (stageSerialize, with workers only). The
	// rpayload view stays valid while hold defers the block's ack.
	hold       *rpcrdma.ResponseHold
	rstatus    uint16
	rerr       bool
	robject    bool
	rpayload   []byte
	rregion    uint64
	rroot      uint32
	out        []byte // worker-written serialized/copied response
	outRelease func() // recycles out into the worker's scratch stock
}

type callResult struct {
	status uint16
	err    bool
	resp   []byte
	// release recycles resp's backing buffer; the receiver calls it once
	// resp is no longer referenced (nil when resp is not pooled).
	release func()
}

// replier is where a task's result goes: the xRPC call it entered on
// (xrpcReply) or SubmitLocal's callback (localReply). Both are pointer-shaped,
// so storing one in a task allocates nothing.
type replier interface{ reply(callResult) }

// xrpcReply answers an xRPC call; the transport releases the response after
// writing it.
type xrpcReply struct{ call *xrpc.Call }

func (x xrpcReply) reply(r callResult) { x.call.Reply(r.status, r.resp, r.release) }

// localReply is SubmitLocal's callback; the response is released as soon as
// it returns.
type localReply func(status uint16, errFlag bool, resp []byte)

func (cb localReply) reply(r callResult) {
	cb(r.status, r.err, r.resp)
	if r.release != nil {
		r.release()
	}
}

// respBufPool recycles the buffers of responses the poller serializes (or
// copies out) inline, which it does when there are no workers: the poller
// takes one per response and the xRPC transport hands it back (putRespBuf)
// after writing the frame. Workers use per-worker scratch stocks (wscratch)
// instead, so their hot path never touches this contended global.
var respBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func putRespBuf(bp *[]byte) {
	xrpc.PoisonReleased(*bp)
	respBufPool.Put(bp)
}

// wscratch is one worker's private stock of response scratch buffers. The
// worker takes buffers with get; release() may run on whatever goroutine
// retires the xRPC response, so returns go through a small buffered channel
// (never blocking — an overfull stock just drops the buffer to the GC).
type wscratch struct {
	free chan []byte
}

func newWScratch() *wscratch { return &wscratch{free: make(chan []byte, 16)} }

func (w *wscratch) get() []byte {
	select {
	case b := <-w.free:
		return b[:0]
	default:
		return make([]byte, 0, 4096)
	}
}

func (w *wscratch) put(b []byte) {
	xrpc.PoisonReleased(b)
	select {
	case w.free <- b:
	default:
	}
}

// DPUConfig tunes one DPU server.
type DPUConfig struct {
	// Workers is the number of deserialization worker goroutines. Every
	// count runs the same poller loop: a call is scanned where it enters
	// (connection goroutine or poller), and the poller reserves block slots
	// in submit order, commits them, and alone owns QP/CQ progress. <= 1
	// starts no workers: the poller fills every request right after its
	// reserve and serializes every response inline. > 1 starts that many:
	// they fill large and scatter-gather requests in place and in parallel
	// directly into their reserved slots (small inline ones the poller
	// still fills itself) and serialize (or copy out) responses.
	Workers int
	// Pipeline, when non-nil, receives queue depth, worker utilization,
	// and commit-latency samples.
	Pipeline *metrics.PipelineMetrics
	// RespPipeline, when non-nil, receives the response direction's queue
	// depth, serialize counts, worker busy time, and dispatch-to-reply
	// latency samples.
	RespPipeline *metrics.ResponsePipelineMetrics
	// Tracer, when non-nil and enabled, stamps every admitted call with a
	// trace ID and records per-stage spans through the whole datapath
	// (measure/reserve/build/commit, PCIe doorbells, the host's dispatch,
	// handler and response stages, and response serialization/reply).
	Tracer *trace.Tracer
	// Window, when non-nil, receives one end-to-end latency observation per
	// completed request (admission to reply), tagged with the request's
	// trace ID so the windowed histogram's tail exemplars resolve to full
	// span anatomies. Nil disables windowed telemetry at one pointer test.
	Window *metrics.RPCWindow
	// SGPayloadMin > 0 enables the scatter-gather payload path: singular
	// string/bytes payloads of at least this many wire bytes are carried in
	// dedicated 8-aligned segments after the object area, referenced by
	// offset from the object's string records and described by an SG table
	// at the front of the message — the deserializer never copies them into
	// the object arena. 0 (the default) keeps every payload inline,
	// byte-identical to pre-SG builds.
	SGPayloadMin int

	// Redial, when non-nil, establishes a replacement connection after the
	// current one trips ErrConnBroken. It is called from the poller
	// goroutine and must return a fresh ClientConn wired to a fresh
	// server-side peer (see offload.NewDeploymentWith, which builds one per
	// connection from connect.go). Requests in flight on the wire at break
	// time fail typed (UNAVAILABLE, exactly once); queued requests ride
	// through and reserve on the replacement.
	Redial func() (*rpcrdma.ClientConn, error)
	// ReconnectBudget bounds consecutive failed redial attempts before the
	// break becomes terminal (the server shuts down and pending requests
	// fail typed), so a hard-down host still fails fast. 0 disables
	// reconnect even when Redial is set. A successful redial refills the
	// budget.
	ReconnectBudget int
	// ReconnectBackoff is the delay before the first redial attempt,
	// doubling per consecutive failure up to ReconnectMaxBackoff.
	// Defaults: 200µs initial, 50ms cap.
	ReconnectBackoff    time.Duration
	ReconnectMaxBackoff time.Duration

	// AdmitMaxInflight > 0 enables DPU-side admission control: new requests
	// are shed with UNAVAILABLE (never entering the reserve-arena bounded
	// wait) while the server already has this many requests admitted —
	// queued, in the pipeline, or outstanding on the wire. Requests already
	// admitted are never shed. 0 admits everything.
	AdmitMaxInflight int

	// CacheMethods opts full method names ("/pkg.Service/Method") into the
	// DPU-resident response cache: repeated byte-identical requests to these
	// methods are answered from stored response bytes before the scan, the
	// admission gate, and the host dispatch. Only methods whose responses
	// depend solely on the request bytes (idempotent, read-mostly) belong
	// here. Unknown names fail construction.
	CacheMethods []string
	// Cache is the response cache backing CacheMethods. Deployments share
	// one cache across every connection's server (and across reconnects);
	// nil with CacheMethods set builds a private cache with default bounds.
	Cache *rpccache.Cache
}

// DPUServer is the DPU middleman for one RPC-over-RDMA connection: it
// terminates xRPC calls, runs the request deserialization on the DPU, and
// forwards built objects to the host (Sec. III-A). One poller goroutine
// must own Progress (the per-connection client poller of Sec. III-C);
// xRPC connection goroutines submit work through a channel, which is the
// many-to-one-to-one multiplexing of the paper.
type DPUServer struct {
	table  *adt.Table
	procs  *procTable
	client *rpcrdma.ClientConn
	cfg    DPUConfig
	dopts  deser.Options // options for every deserializer this server creates
	// maxNeed is the largest request object a block slot can hold
	// (ClientConn.MaxPayload): scans refuse a request past it before
	// decoding its packed varints.
	maxNeed int

	// clientRef republishes client for every other goroutine. client is
	// poller-owned and swapped by adopt, so connection goroutines ringing
	// the poller (see wake) and cross-goroutine readers (Client) reach the
	// current connection only through this handle.
	clientRef atomic.Pointer[rpcrdma.ClientConn]

	submit chan *callTask
	retry  []*callTask
	d      *deser.Deserializer
	// scanPool holds deserializers for the scans handleCall runs on xRPC
	// connection goroutines (d.d is poller-owned and must not be shared
	// with them). Per-server so every deserializer carries this server's
	// options (SGPayloadMin in particular).
	scanPool sync.Pool
	// tasks recycles callTasks, each with its continuation bound (newTask).
	tasks  sync.Pool
	closed atomic.Bool

	// Run/Close coordination: Close signals an active Run loop through
	// stopCh and waits for runDone so teardown never races the poller.
	stopCh   chan struct{}
	stopOnce sync.Once
	runDone  chan struct{}
	running  atomic.Bool

	// Worker pool (nil channels when Workers <= 1).
	workQ chan *callTask
	compQ chan *callTask
	wg    sync.WaitGroup

	// maxInflight bounds inflight and respInflight: inflightPerWorker x
	// max(Workers, 1).
	maxInflight int

	// Poller-owned pipeline state: tasks reserved and not yet committed.
	inflight int

	// onWorkers counts tasks handed to queueWork and not yet returned
	// through compQ, so enterReconnect can quiesce the worker stages before
	// aborting the connection. Poller-owned.
	onWorkers int

	// Poller-owned response-pipeline state: serialize tasks in flight on
	// the pool, and the overflow queue keeping workQ occupancy bounded.
	respInflight int
	respPending  []*callTask

	// statsMu guards the merged deserializer stats so Stats() is safe from
	// any goroutine while the poller and workers keep deserializing.
	statsMu    sync.Mutex
	deserStats deser.Stats

	requests    atomic.Uint64
	responses   atomic.Uint64
	errors      atomic.Uint64
	measured    atomic.Uint64
	respBytes   atomic.Uint64
	serialized  atomic.Uint64
	reconnects  atomic.Uint64
	redialFails atomic.Uint64
	sheds       atomic.Uint64

	// Response-cache counters. Per-server (not per-cache) so a deployment
	// sharing one cache across connections can still attribute probe work
	// and hit savings to each server, and so the harness can delta them
	// across a measurement window.
	cacheHits         atomic.Uint64
	cacheMisses       atomic.Uint64
	cacheProbeBytes   atomic.Uint64
	cacheHitReqBytes  atomic.Uint64
	cacheHitRespBytes atomic.Uint64
	cacheInsertBytes  atomic.Uint64

	// Reconnect state machine (poller-owned). epoch counts adopted
	// connections; tasks stamp it when they acquire connection-bound
	// resources. While reconBroken is set the server neither reserves nor
	// submits on the (dead) client: Progress attempts a redial once
	// reconNextAt passes, backing off exponentially, until the budget runs
	// out and the break becomes terminal.
	epoch         uint64
	reconBroken   bool
	reconErr      error
	reconNextAt   time.Time
	reconBackoff  time.Duration
	reconAttempts int
}

// NewDPUServer builds the DPU side from the table received at handshake and
// an established RPC-over-RDMA client connection, with no workers (the
// poller does every fill on its own core).
func NewDPUServer(table *adt.Table, client *rpcrdma.ClientConn) (*DPUServer, error) {
	return NewDPUServerWith(table, client, DPUConfig{})
}

// NewDPUServerWith is NewDPUServer with the pipeline knobs.
func NewDPUServerWith(table *adt.Table, client *rpcrdma.ClientConn, cfg DPUConfig) (*DPUServer, error) {
	procs, err := buildProcTable(table, nil, false)
	if err != nil {
		return nil, err
	}
	dopts := deser.Options{ValidateUTF8: true, ScalarUTF8: true, SGPayloadMin: cfg.SGPayloadMin}
	d := &DPUServer{
		table:       table,
		procs:       procs,
		client:      client,
		cfg:         cfg,
		submit:      make(chan *callTask, 4096),
		dopts:       dopts,
		maxNeed:     client.MaxPayload(),
		d:           deser.New(dopts),
		stopCh:      make(chan struct{}),
		runDone:     make(chan struct{}),
		maxInflight: inflightPerWorker * max(cfg.Workers, 1),
	}
	d.clientRef.Store(client)
	d.scanPool.New = func() any { return deser.New(dopts) }
	d.tasks.New = func() any {
		t := &callTask{}
		t.onResp = func(resp rpcrdma.Response) { d.respond(t, resp) }
		return t
	}
	for _, name := range cfg.CacheMethods {
		mid, ok := procs.byName[name]
		if !ok {
			return nil, fmt.Errorf("offload: cache method %q not in table", name)
		}
		procs.entries[mid].cache = true
	}
	if len(cfg.CacheMethods) > 0 && d.cfg.Cache == nil {
		d.cfg.Cache = rpccache.New(rpccache.Config{Methods: len(procs.entries)})
	}
	if d.cfg.ReconnectBackoff <= 0 {
		d.cfg.ReconnectBackoff = 200 * time.Microsecond
	}
	if d.cfg.ReconnectMaxBackoff <= 0 {
		d.cfg.ReconnectMaxBackoff = 50 * time.Millisecond
	}
	if cfg.Workers > 1 {
		// Both directions share the pool: request tasks (bounded by
		// maxInflight) and response tasks (bounded by respInflight <=
		// maxInflight), so channel capacity covers their sum and no
		// poller/worker send ever blocks.
		d.workQ = make(chan *callTask, 2*d.maxInflight)
		d.compQ = make(chan *callTask, 2*d.maxInflight)
		for i := 0; i < cfg.Workers; i++ {
			d.wg.Add(1)
			go d.worker(i + 1)
		}
	}
	return d, nil
}

// Client returns the underlying RPC-over-RDMA connection (the current one:
// a reconnect replaces it). Safe from any goroutine; what may be done with
// the connection off the poller is up to rpcrdma (Gauges, Broken, Wake).
func (d *DPUServer) Client() *rpcrdma.ClientConn { return d.clientRef.Load() }

// Workers returns the build worker count (1 = no workers: the poller fills
// every request).
func (d *DPUServer) Workers() int {
	if d.workQ == nil {
		return 1
	}
	return d.cfg.Workers
}

// wake ends the poller's blocking wait after a producer has queued work for
// it somewhere other than the completion queue: a connection goroutine after
// d.submit, a pipeline worker after d.compQ, and Close after stopCh. A kick
// that races a redial may land on the dead connection; nothing is lost,
// because adopt runs on the poller, which drains both queues on its next pass
// before it can sleep on the replacement. Safe from any goroutine; never
// blocks.
func (d *DPUServer) wake() { d.clientRef.Load().Wake() }

// cacheable reports whether the entry is opted into the response cache and
// a cache is attached.
func (d *DPUServer) cacheable(e *procEntry) bool {
	return e.cache && d.cfg.Cache != nil
}

// cacheProbe consults the response cache for one request before it enters
// the datapath. On a hit it records the full telemetry of a completed
// request — the StageCacheHit span, the finished trace, the windowed
// latency observation — and returns the stored response bytes; the caller
// replies with them directly, skipping the scan, the admission gate, the block
// pipeline, and the host. Safe from any goroutine: the cache and every
// recorder touched here are internally synchronized or lock-free.
func (d *DPUServer) cacheProbe(id uint16, e *procEntry, payload []byte, tr *trace.Active, admit int64) ([]byte, uint16, bool) {
	if !d.cacheable(e) {
		return nil, 0, false
	}
	var t0 int64
	if tr != nil {
		t0 = trace.Now()
	}
	resp, status, ok := d.cfg.Cache.Get(id, payload)
	d.cacheProbeBytes.Add(uint64(len(payload)))
	if !ok {
		d.cacheMisses.Add(1)
		return nil, 0, false
	}
	d.cacheHits.Add(1)
	d.cacheHitReqBytes.Add(uint64(len(payload)))
	d.cacheHitRespBytes.Add(uint64(len(resp)))
	if tr != nil {
		tr.Span(trace.StageCacheHit, trace.ProcDPU, 0, t0, trace.Now())
	}
	d.cfg.Tracer.Finish(tr, false)
	if d.cfg.Window != nil && admit != 0 {
		d.cfg.Window.Observe(trace.Now()-admit, tr.ID(), false)
	}
	return resp, status, true
}

// cacheInsert stores one committed host response on the way out of the
// datapath, so the next byte-identical request hits. Error results never
// insert (and host-flagged errors invalidated the method in respond);
// responses whose task predates the current connection epoch are dropped —
// a redial may mean the world changed while the response was in flight.
// Poller-owned (reads d.epoch).
func (d *DPUServer) cacheInsert(task *callTask, r callResult) {
	if r.err || r.status != xrpc.StatusOK {
		return
	}
	if task.entry == nil || !d.cacheable(task.entry) || task.epoch != d.epoch {
		return
	}
	if d.cfg.Cache.Put(task.procID, task.data, r.resp, r.status) {
		d.cacheInsertBytes.Add(uint64(len(task.data) + len(r.resp)))
	}
}

// Stats returns a snapshot of the DPU-side counters. Safe to call from any
// goroutine: per-worker (and poller) deserializer stats are folded into one
// merged accumulator under a lock.
func (d *DPUServer) Stats() DPUStats {
	d.statsMu.Lock()
	merged := d.deserStats
	d.statsMu.Unlock()
	return DPUStats{
		Requests:        d.requests.Load(),
		Responses:       d.responses.Load(),
		Errors:          d.errors.Load(),
		MeasuredBytes:   d.measured.Load(),
		RespBytes:       d.respBytes.Load(),
		SerializedBytes: d.serialized.Load(),
		Reconnects:      d.reconnects.Load(),
		RedialFails:     d.redialFails.Load(),
		Sheds:           d.sheds.Load(),

		CacheHits:         d.cacheHits.Load(),
		CacheMisses:       d.cacheMisses.Load(),
		CacheProbeBytes:   d.cacheProbeBytes.Load(),
		CacheHitReqBytes:  d.cacheHitReqBytes.Load(),
		CacheHitRespBytes: d.cacheHitRespBytes.Load(),
		CacheInsertBytes:  d.cacheInsertBytes.Load(),

		Deser: merged,
	}
}

// foldStats merges a deserializer's accumulated stats into the shared
// snapshot and resets it.
func (d *DPUServer) foldStats(dd *deser.Deserializer) {
	if dd.Stats == (deser.Stats{}) {
		return
	}
	d.statsMu.Lock()
	d.deserStats.Add(dd.Stats)
	d.statsMu.Unlock()
	dd.Stats.Reset()
}

// worker is one pipeline core: it deserializes large requests in place into
// reserved block slots and serializes (or copies out) responses, never
// touching protocol state. Each finished task goes back through compQ and
// rings the poller. wid (1..N) is its lane in trace output.
func (d *DPUServer) worker(wid int) {
	defer d.wg.Done()
	dd := deser.New(d.dopts)
	ws := newWScratch()
	for task := range d.workQ {
		d.workTask(dd, ws, task, wid)
		d.compQ <- task
		d.wake()
	}
}

// fill runs a reserved task's build stage: it replays the parse notes into
// the task's block slot and records the root and the bytes used (or the
// error) for the commit.
func (d *DPUServer) fill(dd *deser.Deserializer, task *callTask) {
	rootAbs, used, err := d.buildInto(dd, task, task.res.Dst, task.res.RegionOff)
	task.notes.Release()
	task.notes = nil
	if err != nil {
		task.err = err
		return
	}
	task.root = uint32(rootAbs - task.res.RegionOff)
	task.used = used
}

// workTask runs one task's current stage on a worker goroutine.
func (d *DPUServer) workTask(dd *deser.Deserializer, ws *wscratch, task *callTask, wid int) {
	start := time.Now()
	switch task.stage {
	case stageBuild:
		d.fill(dd, task)
		d.foldStats(dd)
		if m := d.cfg.Pipeline; m != nil {
			m.Builds.Inc()
		}
	case stageSerialize:
		if task.robject {
			// Response-serialization offload: walk the shared-region
			// object graph into wire bytes, in this worker's scratch.
			view := abi.MakeView(
				&abi.Region{Buf: task.rpayload, Base: task.rregion},
				task.rregion+uint64(task.rroot), task.entry.out)
			buf := ws.get()
			out, err := deser.Serialize(view, buf)
			if err != nil {
				ws.put(buf) // recycle on the failure path too
				task.err = err
			} else {
				task.out = out
				task.outRelease = func() { ws.put(out) }
			}
		} else {
			// Host-serialized protobuf: copy it out of the block.
			out := append(ws.get(), task.rpayload...)
			task.out = out
			task.outRelease = func() { ws.put(out) }
		}
		if m := d.cfg.RespPipeline; m != nil {
			m.Serializes.Inc()
		}
	}
	if task.tr != nil {
		stage := trace.StageBuild
		if task.stage == stageSerialize {
			stage = trace.StageRespSerialize
		}
		task.tr.Span(stage, trace.ProcDPU, wid, start.UnixNano(), time.Now().UnixNano())
	}
	if task.stage == stageSerialize {
		if m := d.cfg.RespPipeline; m != nil {
			m.BusyNS.Add(uint64(time.Since(start).Nanoseconds()))
		}
	} else if m := d.cfg.Pipeline; m != nil {
		m.BusyNS.Add(uint64(time.Since(start).Nanoseconds()))
	}
}

// alignUp8 rounds n up to the next multiple of 8 (SG segment alignment).
func alignUp8(n int) int { return (n + 7) &^ 7 }

// sgSlotSize returns the reservation size for a scanned request: the exact
// object size alone on the inline path, or — when the scan found SG payload
// segments — the SG table, the 8-aligned object area, and the segment area.
func sgSlotSize(need, segs, segBytes int) int {
	if segs == 0 {
		return need
	}
	return rpcrdma.SGTableSize(segs) + alignUp8(need) + segBytes
}

// buildInto replays the task's parse notes into a reserved slot. On the
// inline path the fill owns the whole slot. On the SG path the slot splits
// into [SG table][object area][payload segments]: the fill builds the object
// with its base shifted past the table, large string/bytes payloads become
// offset references into the segment area (never copied through the object
// arena), the wire bytes are placed once into the 8-aligned segments, and
// the table describing them is written at the front. Returns the root's
// absolute region offset and the slot bytes used.
func (d *DPUServer) buildInto(dd *deser.Deserializer, task *callTask, dst []byte, regionOff uint64) (uint64, int, error) {
	if task.segs == 0 {
		bump := arena.NewBump(dst)
		rootAbs, err := dd.Fill(task.entry.plan, task.data, task.notes, bump, regionOff)
		if err != nil {
			return 0, 0, err
		}
		return rootAbs, bump.Used(), nil
	}
	tbl := rpcrdma.SGTableSize(task.segs)
	segOff := tbl + alignUp8(task.need)
	bump := arena.NewBump(dst[tbl:segOff])
	rootAbs, err := dd.FillSG(task.entry.plan, task.data, task.notes, bump,
		regionOff+uint64(tbl), regionOff+uint64(segOff))
	if err != nil {
		return 0, 0, err
	}
	refs := dd.PlaceSegments(task.data, task.notes, dst[segOff:segOff+task.segBytes], nil)
	descs := make([]rpcrdma.SGDesc, len(refs))
	for i, r := range refs {
		descs[i] = rpcrdma.SGDesc{Field: r.FieldNum, Off: uint32(segOff) + r.Off, Len: r.Len}
	}
	rpcrdma.PutSGTable(dst[:tbl], descs)
	return rootAbs, segOff + task.segBytes, nil
}

// newTask starts one call where it enters the DPU: it resolves the method,
// begins the trace, stamps the admission time, probes the response cache,
// and scans the payload with the method's compiled decode plan. The scan
// sizes the request exactly (an interior slot of a shared block cannot
// shrink after later reserves) and its notes ride the task, so the fill only
// replays them. A nil task with a nil error is a call already answered here:
// a cache hit or, on the poller, a shed.
//
// onPoller is SubmitLocal's variant: the call is already on the poller
// goroutine, so it meets the admission gate before the scan and scans with
// the poller-owned d.d. Otherwise (handleCall, on an xRPC connection
// goroutine) the scan borrows a deserializer from scanPool and the poller
// applies the gate when it admits the task.
func (d *DPUServer) newTask(method string, payload []byte, onPoller bool) (*callTask, callResult, error) {
	id, ok := d.procs.byName[method]
	if !ok {
		return nil, callResult{}, fmt.Errorf("%w %q", errUnknownMethod, method)
	}
	e := d.procs.byID(id)
	tr := d.cfg.Tracer.Begin(method)
	var admit int64
	if d.cfg.Window != nil {
		admit = trace.Now()
	}
	// A cache hit completes entirely on the DPU, so it never counts against
	// the admission gate: shedding cached reads while the host-bound
	// pipeline is saturated would throw away exactly the capacity the cache
	// adds. The bytes alias an immutable cache entry, so there is nothing to
	// release.
	if resp, status, ok := d.cacheProbe(id, e, payload, tr, admit); ok {
		return nil, callResult{status: status, resp: resp}, nil
	}
	dd := d.d
	if onPoller {
		if d.overAdmission() {
			d.sheds.Add(1)
			d.errors.Add(1)
			d.cfg.Tracer.Finish(tr, true)
			return nil, callResult{status: xrpc.StatusUnavailable, err: true,
				resp: []byte("offload: admission control shed")}, nil
		}
	} else {
		dd = d.scanPool.Get().(*deser.Deserializer)
	}
	var mT0 int64
	if tr != nil {
		mT0 = trace.Now()
	}
	notes, err := dd.ScanWithin(e.plan, payload, d.maxNeed)
	if !onPoller {
		d.foldStats(dd)
		d.scanPool.Put(dd)
	}
	if err != nil {
		d.cfg.Tracer.Finish(tr, true)
		if errors.Is(err, deser.ErrTooLarge) {
			// The request cannot fit any slot: the refusal Reserve gives.
			err = fmt.Errorf("%w: %w", rpcrdma.ErrTooLargeForBuffer, err)
		}
		return nil, callResult{}, err
	}
	if tr != nil {
		tr.Span(trace.StageMeasure, trace.ProcDPU, 0, mT0, trace.Now())
	}
	t := d.tasks.Get().(*callTask)
	t.procID, t.entry, t.data, t.tr, t.admit = id, e, payload, tr, admit
	t.need, t.segs, t.segBytes, t.notes = notes.Need(), notes.SegCount(), notes.SegBytes(), notes
	return t, callResult{}, nil
}

// recycle returns a task to the pool. Only the normal path recycles — a host
// response through respond to finish — because only there can no registered
// continuation fire on the task again: every failure path (failTask, failAll,
// a reconnect's Abort) leaves the task to the GC (see finish).
func (d *DPUServer) recycle(t *callTask) {
	*t = callTask{onResp: t.onResp}
	d.tasks.Put(t)
}

// XRPCHandler terminates xRPC calls: it resolves the method, scans the
// payload with its compiled decode plan (sizing it exactly and pre-decoding
// the structure) on the connection's handler goroutine, hands the request to
// the poller for the fill, and returns. The poller replies to the call when
// the host's response arrives (finish); the reply's release recycles the
// response buffer once the transport has written it.
//
// call.Payload is the transport's pooled request frame: the scan, the fill,
// the SG segment placement and the cache probe and insert all read it in
// place, and none of them may still be reading it once the call is replied
// to — the transport recycles it after writing the response. finish asserts
// that no pipeline worker still holds the request.
func (d *DPUServer) XRPCHandler() xrpc.Handler { return d.handleCall }

func (d *DPUServer) handleCall(call *xrpc.Call) {
	task, hit, err := d.newTask(call.Method, call.Payload, false)
	if err != nil {
		d.errors.Add(1)
		switch {
		case errors.Is(err, errUnknownMethod):
			call.Reply(xrpc.StatusUnimplemented, nil, nil)
		case errors.Is(err, rpcrdma.ErrTooLargeForBuffer):
			call.Reply(failStatus(err), []byte(fmt.Sprintf("offload: %v", err)), nil)
		default:
			call.Reply(xrpc.StatusInvalidArgument, nil, nil)
		}
		return
	}
	if task == nil {
		call.Reply(hit.status, hit.resp, nil)
		return
	}
	if d.closed.Load() {
		task.notes.Release()
		d.cfg.Tracer.Finish(task.tr, true)
		d.recycle(task)
		call.Reply(xrpc.StatusUnavailable, nil, nil)
		return
	}
	task.to = xrpcReply{call}
	d.submit <- task
	d.wake()
	// Close the shutdown race: if the poller exited between the closed
	// check above and the send, its final drain may have run before our
	// task landed in the channel. Once closed is visible, submitters
	// drain the channel themselves so no call goes unanswered.
	if d.closed.Load() {
		d.drainSubmit(ErrShuttingDown)
	}
}

// SubmitLocal enqueues one pre-resolved request from the poller goroutine
// itself (no cross-goroutine handoff): the fast path used by the benchmark
// harness, which plays the role of the DPU's xRPC front end. A cache hit or
// an admission shed invokes cb inline (there is nothing to wait for);
// otherwise cb runs from a later Progress call. Its resp slice aliases a
// recycled buffer and must not be retained.
func (d *DPUServer) SubmitLocal(fullMethod string, payload []byte, cb func(status uint16, errFlag bool, resp []byte)) error {
	task, answered, err := d.newTask(fullMethod, payload, true)
	if err != nil {
		return err
	}
	if task == nil {
		cb(answered.status, answered.err, answered.resp)
		return nil
	}
	task.to = localReply(cb)
	d.retry = append(d.retry, task)
	return nil
}

// finish replies with a result exactly once, and counts it if it is an
// error. Tasks inside the pipeline can be signalled twice at shutdown (pool
// drain and client.Abort through their registered continuation); only the
// first wins — which is why a task finished on a failure path is never
// recycled. Poller-owned.
func (d *DPUServer) finish(task *callTask, r callResult) {
	if task.onWorker {
		// Replying lets the transport write the response and then recycle
		// the request frame task.data points into — while a worker
		// may still be inside Scan or buildInto on it. Every path that gives
		// up on requests quiesces (enterReconnect) or joins (stopPool) the
		// workers and takes the tasks back first.
		panic("offload: request finished while a pipeline worker still holds it")
	}
	if task.finished {
		if r.release != nil {
			r.release()
		}
		return
	}
	task.finished = true
	if r.err {
		d.errors.Add(1)
	}
	// Failure paths can finish a task that never reached its fill; recycle
	// its parse notes. Nil-safe, and workers that already consumed the notes
	// cleared the field before the compQ handoff.
	task.notes.Release()
	task.notes = nil
	if task.tr != nil {
		now := trace.Now()
		task.tr.Span(trace.StageDeliver, trace.ProcDPU, 0, now, now)
		d.cfg.Tracer.Finish(task.tr, r.err)
	}
	if d.cfg.Window != nil && task.admit != 0 {
		// Observe after Finish so a /tail scrape that lands between the two
		// can already resolve the exemplar's trace from the completed rings.
		d.cfg.Window.Observe(trace.Now()-task.admit, task.tr.ID(), r.err)
	}
	// Committed OK responses of cache-opted methods populate the cache on
	// the way out (Put copies both key and value, so recycling r.resp after
	// the reply is safe). Nothing may read task.data after the reply.
	d.cacheInsert(task, r)
	task.to.reply(r)
}

// reclaim takes a task back from the worker pool after it came through
// compQ. Only now may it finish. Poller-owned.
func (d *DPUServer) reclaim(task *callTask) {
	d.onWorkers--
	task.onWorker = false
}

// respond forwards one protocol response to the task's xRPC caller: the
// OnResponse continuation every reservation registers.
func (d *DPUServer) respond(task *callTask, resp rpcrdma.Response) {
	if task.finished {
		return
	}
	d.responses.Add(1)
	d.respBytes.Add(uint64(len(resp.Payload)))
	if resp.Err && task.entry != nil && d.cacheable(task.entry) {
		// A cache-opted method just failed on the host: whatever the cache
		// holds for it may describe state the failure mutated or revealed to
		// be stale. Drop the method's entries; subsequent requests bypass to
		// the host until fresh OK responses repopulate.
		d.cfg.Cache.InvalidateMethod(task.procID)
	}
	if d.workQ != nil && (resp.Object || len(resp.Payload) > 0) {
		// Response pipeline: the serialization (or the copy out of the
		// block) runs on a worker. The block's acknowledgment is deferred
		// until the task completes, keeping resp.Payload valid off the
		// poller; a later Progress pass replies with the completions.
		task.stage = stageSerialize
		task.rstatus = resp.Status
		task.rerr = resp.Err
		task.robject = resp.Object
		task.rpayload = resp.Payload
		task.rregion = resp.RegionOff
		task.rroot = resp.Root
		task.hold = d.client.HoldResponseBlock()
		task.epoch = d.epoch
		if d.cfg.RespPipeline != nil {
			task.reserved = time.Now().UnixNano()
		}
		d.dispatchResp(task)
		return
	}
	var out []byte
	var release func()
	var serT0 int64
	traced := task.tr != nil && (resp.Object || len(resp.Payload) > 0)
	if traced {
		serT0 = trace.Now()
	}
	if resp.Object {
		// Response-serialization offload: the payload is a shared-region
		// object graph; the DPU serializes it into the xRPC response
		// (Sec. III-A's symmetric extension).
		view := abi.MakeView(
			&abi.Region{Buf: resp.Payload, Base: resp.RegionOff},
			resp.RegionOff+uint64(resp.Root), task.entry.out)
		bp := respBufPool.Get().(*[]byte)
		serialized, err := deser.Serialize(view, (*bp)[:0])
		if err != nil {
			putRespBuf(bp)
			d.failTask(task, err)
			return
		}
		*bp = serialized
		d.serialized.Add(uint64(len(serialized)))
		out = serialized
		release = func() { putRespBuf(bp) }
	} else if len(resp.Payload) > 0 {
		// Host-serialized protobuf: copy it out of the block (its slot is
		// recycled after this continuation) into a pooled buffer and
		// forward verbatim.
		bp := respBufPool.Get().(*[]byte)
		*bp = append((*bp)[:0], resp.Payload...)
		out = *bp
		release = func() { putRespBuf(bp) }
	}
	if traced {
		task.tr.Span(trace.StageRespSerialize, trace.ProcDPU, 0, serT0, trace.Now())
	}
	d.finish(task, callResult{
		status:  resp.Status,
		err:     resp.Err,
		resp:    out,
		release: release,
	})
	if resp.LocalErr == nil {
		d.recycle(task)
	}
}

// queueWork hands one task to the worker pool. Poller-owned.
func (d *DPUServer) queueWork(task *callTask) {
	d.onWorkers++
	task.onWorker = true
	d.workQ <- task
}

// dispatchResp enters one response into the serialization pipeline,
// spilling to respPending when the in-flight bound is reached (keeping
// workQ occupancy under the channel capacity). Poller-owned.
func (d *DPUServer) dispatchResp(task *callTask) {
	if d.respInflight < d.maxInflight {
		d.respInflight++
		d.queueWork(task)
	} else {
		d.respPending = append(d.respPending, task)
	}
}

// admitResponses refills the serialization pipeline from the overflow
// queue. Poller-owned.
func (d *DPUServer) admitResponses() {
	for len(d.respPending) > 0 && d.respInflight < d.maxInflight {
		task := d.respPending[0]
		d.respPending = d.respPending[0:copy(d.respPending, d.respPending[1:])]
		d.respInflight++
		d.queueWork(task)
	}
}

// Progress runs one pass of the DPU poller: it collects worker completions,
// reserves submitted tasks in submit order (filling small ones inline, and
// every one when there are no workers), and advances the protocol event
// loop — all protocol interaction stays on this goroutine. When a partial
// block seals is rpcrdma's policy (CommitBatch; no block seals while a slot
// in it is still building). It returns the number of response blocks
// processed.
func (d *DPUServer) Progress() (int, error) {
	drained := d.collectCompletions()
	d.admit()
	d.admitResponses()
	n, err := d.progressClient()
	if err != nil {
		return n, err
	}
	drained += d.collectCompletions()
	d.admitResponses()
	d.admit()
	if drained == 0 && d.inflight+d.respInflight > 0 {
		// Busy-poll cooperation: every outstanding task is on a worker
		// goroutine and nothing completed this pass, so yield the poller's
		// core — otherwise a spinning poller starves the very workers it
		// is waiting on when GOMAXPROCS is small.
		runtime.Gosched()
	}
	if m := d.cfg.Pipeline; m != nil {
		m.QueueDepth.Set(float64(d.inflight))
	}
	if m := d.cfg.RespPipeline; m != nil {
		m.QueueDepth.Set(float64(d.respInflight + len(d.respPending)))
	}
	return n, err
}

// collectCompletions drains the worker completion queue: built tasks are
// committed (or cancelled on failure), serialized responses replied to.
// Never blocks.
func (d *DPUServer) collectCompletions() (drained int) {
	for {
		select {
		case task := <-d.compQ:
			d.reclaim(task)
			drained++
			d.completeTask(task)
		default:
			return
		}
	}
}

// completeTask applies one completed task to poller state.
func (d *DPUServer) completeTask(task *callTask) {
	switch task.stage {
	case stageBuild:
		d.inflight--
		if task.epoch != d.epoch {
			// Reserved on a connection replaced while the build was on a
			// worker: the dead reservation is unusable and Abort already
			// failed the task typed through its continuation. (The quiesce
			// in enterReconnect makes this unreachable; guard anyway.)
			d.failTask(task, rpcrdma.ErrConnBroken)
			return
		}
		if task.err != nil {
			d.client.Cancel(task.res)
			d.failTask(task, task.err)
			return
		}
		var cT0 int64
		if task.tr != nil {
			cT0 = trace.Now()
		}
		if err := d.client.Commit(task.res, task.root, task.used); err != nil {
			d.failTask(task, err)
			return
		}
		if task.tr != nil {
			task.tr.Span(trace.StageCommit, trace.ProcDPU, 0, cT0, trace.Now())
		}
		d.requests.Add(1)
		d.measured.Add(uint64(len(task.data)))
		if m := d.cfg.Pipeline; m != nil {
			m.CommitLatencyUS.Observe(float64(time.Now().UnixNano()-task.reserved) / 1e3)
		}
	case stageSerialize:
		d.respInflight--
		// The block payload is no longer referenced: let its ack go
		// out (FIFO with any earlier held blocks). The payload bytes
		// themselves stay valid even when the block's connection died
		// mid-serialize, so the real result is still the reply below.
		d.releaseHold(task)
		if task.err != nil {
			// The worker already recycled its scratch buffer.
			d.failTask(task, task.err)
			return
		}
		if task.robject {
			d.serialized.Add(uint64(len(task.out)))
		}
		if m := d.cfg.RespPipeline; m != nil {
			m.CommitLatencyUS.Observe(float64(time.Now().UnixNano()-task.reserved) / 1e3)
		}
		d.finish(task, callResult{
			status:  task.rstatus,
			err:     task.rerr,
			resp:    task.out,
			release: task.outRelease,
		})
		d.recycle(task)
	}
}

// admit reserves block slots for submitted tasks in submit order — tasks
// queued on d.retry first, then the submit channel — while the pipeline has
// room. Out-of-memory leaves the task at the head of d.retry (the protocol
// loop will free space); any other reserve error fails the task.
func (d *DPUServer) admit() {
	for !d.reconBroken && d.inflight < d.maxInflight {
		if len(d.retry) > 0 {
			if !d.reserve(d.retry[0]) {
				return
			}
			d.retry = d.retry[0:copy(d.retry, d.retry[1:])]
			continue
		}
		select {
		case task := <-d.submit:
			if d.overAdmission() {
				d.shedTask(task)
				continue
			}
			if !d.reserve(task) {
				d.retry = append(d.retry, task)
				return
			}
		default:
			return
		}
	}
	// At pipeline capacity: shed everything beyond the admission high-water
	// mark so callers back off instead of queueing toward a deadline.
	for d.overAdmission() {
		select {
		case task := <-d.submit:
			d.shedTask(task)
		default:
			return
		}
	}
}

// reserve reserves one task's block slot and runs its build stage. With
// workers, a request above deser.SmallFastPathMax wire bytes or with SG
// segments goes to a worker; every other request — all of them when there
// are no workers — is filled and committed right here. It returns false,
// leaving the task untouched, when the send arena is out of memory.
// Poller-owned.
func (d *DPUServer) reserve(task *callTask) bool {
	var rT0 int64
	if task.tr != nil {
		rT0 = trace.Now()
	}
	res, err := d.client.Reserve(task.procID, sgSlotSize(task.need, task.segs, task.segBytes), task.onResp)
	if err != nil {
		if errors.Is(err, arena.ErrOutOfMemory) {
			return false
		}
		d.failTask(task, err)
		return true
	}
	if task.tr != nil {
		task.tr.Span(trace.StageReserve, trace.ProcDPU, 0, rT0, trace.Now())
	}
	d.client.AttachTrace(res, task.tr)
	if task.segs > 0 {
		res.SG, res.SGSegs, res.SGBytes = true, task.segs, task.segBytes
	}
	d.inflight++
	task.res = res
	task.epoch = d.epoch
	task.stage = stageBuild
	if d.cfg.Pipeline != nil {
		task.reserved = time.Now().UnixNano()
	}
	if d.workQ != nil && (task.segs > 0 || len(task.data) > deser.SmallFastPathMax) {
		d.queueWork(task)
		return true
	}
	var bT0 int64
	if task.tr != nil {
		bT0 = trace.Now()
	}
	d.fill(d.d, task)
	if task.tr != nil {
		task.tr.Span(trace.StageBuild, trace.ProcDPU, 0, bT0, trace.Now())
	}
	d.completeTask(task)
	return true
}

func (d *DPUServer) progressClient() (int, error) {
	if d.reconBroken {
		return 0, d.tryReconnect()
	}
	n, err := d.client.Progress()
	d.foldStats(d.d)
	if err != nil {
		if d.reconnectEnabled() {
			d.enterReconnect(err)
			return n, d.tryReconnect()
		}
		d.failAll(err)
	}
	return n, err
}

// reconnectEnabled reports whether a broken connection is replaced rather
// than becoming terminal.
func (d *DPUServer) reconnectEnabled() bool {
	return d.cfg.Redial != nil && d.cfg.ReconnectBudget > 0
}

// enterReconnect transitions to the reconnecting state after the protocol
// client reported a break. The worker stages are quiesced first: dispatched
// tasks return through compQ promptly (workers never touch protocol state)
// and their completions apply normally — commits fail typed against the
// already-broken connection — so the Abort below never races a worker over
// task state. Abort then fails every request bound to the dead connection
// exactly once through its registered continuation (UNAVAILABLE); queued
// requests (d.retry and the submit channel) are untouched and reserve on the
// replacement after adopt. Poller-owned.
func (d *DPUServer) enterReconnect(err error) {
	if d.reconBroken {
		return
	}
	for d.onWorkers > 0 {
		task := <-d.compQ
		d.reclaim(task)
		d.completeTask(task)
	}
	d.reconBroken = true
	d.reconErr = err
	d.reconAttempts = 0
	d.reconBackoff = d.cfg.ReconnectBackoff
	d.reconNextAt = time.Now().Add(d.reconBackoff)
	d.client.Abort(failStatus(err))
}

// tryReconnect attempts one redial once the backoff deadline passes.
// Returns nil while waiting out the backoff or after a successful adopt;
// when the budget of consecutive failures runs out the break is terminal:
// pending requests fail typed and the error propagates so Run shuts down.
// Poller-owned.
func (d *DPUServer) tryReconnect() error {
	if time.Now().Before(d.reconNextAt) {
		return nil
	}
	nc, err := d.cfg.Redial()
	if err != nil {
		d.redialFails.Add(1)
		d.reconAttempts++
		if d.reconAttempts >= d.cfg.ReconnectBudget {
			ferr := fmt.Errorf("%w: %d attempts (last: %v; broke: %v)",
				ErrReconnectExhausted, d.reconAttempts, err, d.reconErr)
			d.failAll(ferr)
			return ferr
		}
		d.reconBackoff *= 2
		if d.reconBackoff > d.cfg.ReconnectMaxBackoff {
			d.reconBackoff = d.cfg.ReconnectMaxBackoff
		}
		d.reconNextAt = time.Now().Add(d.reconBackoff)
		return nil
	}
	d.adopt(nc)
	return nil
}

// adopt swaps the replacement connection in. The flight recorder's
// remaining dump budget rides over, so the per-server dump cap spans
// reconnects. The epoch advances so completions still holding the dead
// connection's resources (reservations, response holds) are never applied
// to the replacement. Queued requests reserve through the normal admission
// path — the fresh connection pairs a fresh ID pool with
// its fresh server-side peer, so the deterministic request-ID replay stays
// aligned. Poller-owned.
func (d *DPUServer) adopt(nc *rpcrdma.ClientConn) {
	nc.SetFlightDumpBudget(d.client.FlightDumpBudget())
	d.client = nc
	d.clientRef.Store(nc)
	d.epoch++
	d.reconBroken = false
	d.reconErr = nil
	d.reconAttempts = 0
	d.reconBackoff = d.cfg.ReconnectBackoff
	d.reconnects.Add(1)
}

// Break force-fails the underlying connection — the churn-injection hook
// for the connection-scale harness. Both sides observe the closed QP on
// their next post, and when reconnect is configured the following Progress
// passes redial. Poller-owned (it reads the swappable client pointer);
// cross-goroutine kill requests go through the poller loop (see
// PollerGroup.Kill).
func (d *DPUServer) Break() {
	d.client.Close()
}

// overAdmission reports whether the DPU-side admission gate
// (DPUConfig.AdmitMaxInflight) is at its high-water mark, counting every
// request already accepted: queued for (re-)admission, inside the pipeline,
// spilled to the response overflow, or outstanding on the wire.
// Poller-owned.
func (d *DPUServer) overAdmission() bool {
	hw := d.cfg.AdmitMaxInflight
	if hw <= 0 {
		return false
	}
	admitted := len(d.retry) + d.inflight + d.respInflight + len(d.respPending)
	if !d.reconBroken {
		admitted += d.client.Outstanding()
	}
	return admitted >= hw
}

// shedTask rejects one not-yet-admitted request: sheds surface as
// UNAVAILABLE, which xrpc.Retryable treats as back-off-and-retry.
// Poller-owned.
func (d *DPUServer) shedTask(task *callTask) {
	d.sheds.Add(1)
	d.failTask(task, ErrAdmissionShed)
}

// releaseHold lets the task's response-block acknowledgment go out — unless
// the hold belongs to a connection that has since been replaced: the dead
// connection's acks are moot and its hold is unknown to the replacement.
// Poller-owned.
func (d *DPUServer) releaseHold(task *callTask) {
	if task.hold != nil && task.epoch == d.epoch {
		d.client.ReleaseResponseBlock(task.hold)
	}
	task.hold = nil
}

// failStatus classifies a datapath error into the xRPC status the caller
// sees. Transient transport conditions (shutdown, broken connection) map to
// UNAVAILABLE and deadline expiry to DEADLINE_EXCEEDED so the xrpc retry
// layer (Retryable) can distinguish them from genuine server bugs, which
// stay INTERNAL and are never retried.
func failStatus(err error) uint16 {
	switch {
	case errors.Is(err, ErrShuttingDown),
		errors.Is(err, ErrAdmissionShed),
		errors.Is(err, ErrReconnectExhausted),
		errors.Is(err, rpcrdma.ErrConnBroken),
		// A full send arena is a transient overload condition, the same
		// class as an admission-control shed: the caller should back off
		// and retry, not treat it as a server bug.
		errors.Is(err, rpcrdma.ErrSendBufferFull):
		return xrpc.StatusUnavailable
	case errors.Is(err, rpcrdma.ErrRequestTimeout):
		return xrpc.StatusDeadlineExceeded
	}
	return xrpc.StatusInternal
}

func (d *DPUServer) failTask(task *callTask, err error) {
	d.finish(task, callResult{status: failStatus(err), err: true,
		resp: []byte(fmt.Sprintf("offload: %v", err))})
}

func (d *DPUServer) failAll(err error) {
	for len(d.retry) > 0 {
		d.failTask(d.retry[0], err)
		d.retry = d.retry[1:]
	}
	for len(d.respPending) > 0 {
		task := d.respPending[0]
		d.respPending = d.respPending[1:]
		d.releaseHold(task)
		d.failTask(task, err)
	}
	d.drainSubmit(err)
}

// drainSubmit fails every queued task. Unlike failAll it touches no
// poller-owned state, so blocked submitters may call it after shutdown.
func (d *DPUServer) drainSubmit(err error) {
	for {
		select {
		case task := <-d.submit:
			d.failTask(task, err)
		default:
			return
		}
	}
}

// stopPool shuts the worker pool down and fails every task still inside
// the pipeline. Poller-owned (or called once the poller has stopped).
func (d *DPUServer) stopPool(err error) {
	if d.workQ == nil {
		return
	}
	close(d.workQ)
	d.wg.Wait()
	d.workQ = nil
	for {
		select {
		case task := <-d.compQ:
			d.reclaim(task)
			switch task.stage {
			case stageBuild:
				d.inflight--
			case stageSerialize:
				d.respInflight--
				d.releaseHold(task)
				if task.outRelease != nil {
					// Recycle the worker's scratch before failing the task.
					task.outRelease()
					task.outRelease = nil
					task.out = nil
				}
			}
			d.failTask(task, err)
		default:
			return
		}
	}
}

// shutdown tears the server down once: pool first, then every queued and
// in-flight request, then the protocol continuations.
func (d *DPUServer) shutdown(err error) {
	if d.closed.Swap(true) {
		return
	}
	d.stopPool(err)
	d.failAll(err)
	// Outstanding protocol requests will never see responses now that
	// the poller is gone; fail their continuations.
	d.client.Abort(failStatus(err))
}

// Close shuts the server down. If a Run loop is active it is signalled and
// awaited (teardown stays on the poller goroutine); otherwise — e.g. the
// benchmark harness drives Progress directly — teardown runs inline.
// Idempotent.
func (d *DPUServer) Close() {
	d.stopOnce.Do(func() { close(d.stopCh) })
	d.wake() // a Run loop asleep in its poller wait must see stopCh now
	if d.running.Load() {
		<-d.runDone
		return
	}
	d.shutdown(ErrShuttingDown)
}

// Run drives Progress until stop (or Close) signals — the dedicated
// per-connection poller thread of Sec. III-C. On exit every queued and
// in-flight request is failed, so no xRPC caller blocks on a response that
// cannot arrive.
func (d *DPUServer) Run(stop <-chan struct{}) {
	d.running.Store(true)
	defer close(d.runDone)
	for {
		select {
		case <-stop:
			d.shutdown(ErrShuttingDown)
			return
		case <-d.stopCh:
			d.shutdown(ErrShuttingDown)
			return
		default:
			if _, err := d.Progress(); err != nil {
				d.shutdown(err)
				return
			}
		}
	}
}
