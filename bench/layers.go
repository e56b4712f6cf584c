package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"dpurpc"
	"dpurpc/internal/abi"
	"dpurpc/internal/arena"
	"dpurpc/internal/deser"
	"dpurpc/internal/fabric"
	"dpurpc/internal/harness"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/objconv"
	"dpurpc/internal/offload"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/rdma"
	"dpurpc/internal/rpccache"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/trace"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// timeOp runs op in batches for about dur and returns the ns per op of the
// favourable decile of the batches (a neighbour's burst slows a batch, never
// speeds one up) and the process-wide heap allocations per op.
func timeOp(dur time.Duration, op func() error) (ns, allocs float64, err error) {
	batch := 1
	for {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		if time.Since(start) >= 200*time.Microsecond || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	per := make([]float64, 0, 1<<14)
	ops := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(dur)
	for len(per) < 5 || time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		per = append(per, float64(time.Since(start))/float64(batch))
		ops += batch
	}
	runtime.ReadMemStats(&m1)
	return quantile(per, 0.1), float64(m1.Mallocs-m0.Mallocs) / float64(ops), nil
}

// replay holds one fixture per layer. Each is driven from outside, through
// the layer's public functions, with the workload's own payloads and
// options; none sleeps (BusyPoll) and only the xrpc fixture touches TCP.
type replay struct {
	w        workloadDef
	payloads []payload
	next     int // payload cursor of the timed loops

	echoSrv *xrpc.Server
	echoCl  *xrpc.Client
	echoLn  net.Listener

	dep, depTraced *offload.Deployment

	des     *deser.Deserializer
	plan    *deser.Plan
	slot    []byte // one reserved block slot, reused
	objSize int    // slot bytes of the workload's built request object

	rc *rpcrdma.ClientConn
	rp *rpcrdma.ServerPoller

	respMsg *protomsg.Message
	respLay *abi.Layout
	respBuf []byte
}

// fillBase keeps fills off region offset 0 (no NullRef guard), as the
// datapath fills at a block's region offset.
const fillBase = 64

func alignUp8(n int) int { return (n + 7) &^ 7 }

func newReplay(w workloadDef, env *workload.Env, payloads []payload) (*replay, error) {
	f := &replay{w: w, payloads: payloads}

	// xrpc: a server whose handler does nothing but return a response of
	// the workload's size.
	f.echoSrv = xrpc.NewServer(func(method string, payload []byte) (uint16, []byte) {
		if w.Echo {
			return xrpc.StatusOK, payload
		}
		return xrpc.StatusOK, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.echoLn = ln
	go f.echoSrv.Serve(ln) // returns when close() closes the server
	if f.echoCl, err = xrpc.Dial(ln.Addr().String()); err != nil {
		f.close()
		return nil, err
	}

	// offload: the whole DPU+host deployment without its front end,
	// stepped by the caller.
	if f.dep, err = f.newDeployment(nil); err != nil {
		f.close()
		return nil, err
	}
	tr := trace.New(trace.Config{})
	tr.Enable()
	if f.depTraced, err = f.newDeployment(tr); err != nil {
		f.close()
		return nil, err
	}

	// deser: the DPU's decoder options, the request's compiled plan.
	reqLay := env.Table.ByName(payloads[0].msg.Descriptor().Name)
	if reqLay == nil {
		f.close()
		return nil, fmt.Errorf("%s: request layout not in the ADT", w.Name)
	}
	f.des = deser.New(deser.Options{ValidateUTF8: true, ScalarUTF8: true, SGPayloadMin: w.Opts.SGPayloadMin})
	f.plan = deser.PlanFor(reqLay)
	for i := range payloads {
		no, err := f.des.Scan(f.plan, payloads[i].wire)
		if err != nil {
			f.close()
			return nil, err
		}
		size := no.Need()
		if no.SegCount() > 0 {
			size = rpcrdma.SGTableSize(no.SegCount()) + alignUp8(no.Need()) + no.SegBytes()
		}
		f.objSize = max(f.objSize, size)
		no.Release()
	}
	f.slot = make([]byte, f.objSize)
	f.des.Stats.Reset()

	// rpcrdma: one client/server connection over the in-process fabric; the
	// request carries the built object's bytes, the response what the
	// workload's response puts on the fabric.
	ccfg, scfg := busyPollConfigs()
	respSize := 0
	if w.Echo {
		respSize = f.objSize
	}
	link := fabric.NewLink()
	f.rp = rpcrdma.NewServerPoller(scfg)
	f.rc, _, err = rpcrdma.Connect(
		rdma.NewDevice("dpu", link, fabric.DPUToHost),
		rdma.NewDevice("host", link, fabric.HostToDPU),
		ccfg, scfg, f.rp,
		func(rpcrdma.Request) rpcrdma.ResponseSpec { return rpcrdma.ResponseSpec{Size: respSize} })
	if err != nil {
		f.close()
		return nil, err
	}

	// objconv / protomsg: the workload's response message.
	f.respMsg, f.respLay = protomsg.New(env.Empty), env.EmptyLay
	if w.Echo {
		f.respMsg, f.respLay = payloads[0].msg, reqLay
	}
	need, err := objconv.MeasureMessage(f.respLay, f.respMsg)
	if err != nil {
		f.close()
		return nil, err
	}
	f.respBuf = make([]byte, max(need, f.respMsg.Size())+64)
	return f, nil
}

func busyPollConfigs() (ccfg, scfg rpcrdma.Config) {
	ccfg, scfg = rpcrdma.DefaultClientConfig(), rpcrdma.DefaultServerConfig()
	ccfg.BusyPoll, scfg.BusyPoll = true, true
	return ccfg, scfg
}

func (f *replay) newDeployment(tr *trace.Tracer) (*offload.Deployment, error) {
	schema, err := dpurpc.ParseSchema("bench.proto", workload.Schema)
	if err != nil {
		return nil, err
	}
	ccfg, scfg := busyPollConfigs()
	return offload.NewDeploymentWith(schema.Table, benchImpls(schema), offload.DeployConfig{
		Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
		DPUWorkers:                   f.w.Opts.DPUWorkers,
		SGPayloadMin:                 f.w.Opts.SGPayloadMin,
		OffloadResponseSerialization: f.w.Opts.OffloadResponseSerialization,
		Tracer:                       tr,
	})
}

func (f *replay) close() {
	if f.echoCl != nil {
		f.echoCl.Close()
	}
	f.echoSrv.Close()
	if f.dep != nil {
		f.dep.Close()
	}
	if f.depTraced != nil {
		f.depTraced.Close()
	}
	if f.rc != nil {
		f.rc.Close()
		f.rp.Close()
	}
}

// nextPayload cycles the payloads for the timed loops.
func (f *replay) nextPayload() *payload {
	p := &f.payloads[f.next%len(f.payloads)]
	f.next++
	return p
}

var errWrongResponse = errors.New("wrong response")

// xrpcEcho is one depth-1 Client.Call against the no-op xrpc server.
func (f *replay) xrpcEcho(p *payload) error {
	status, resp, err := f.echoCl.Call(f.w.fullMethod(), p.wire)
	if !p.check(f.w.Echo, status, resp, err) {
		return fmt.Errorf("xrpc.echo: %w (status %d, err %v)", errWrongResponse, status, err)
	}
	return nil
}

// step submits n requests to the deployment from this goroutine and steps
// the DPU and host pollers until every callback has run: no TCP, no sleeping.
func (f *replay) step(d *offload.Deployment, n int) error {
	done, bad := 0, 0
	for i := 0; i < n; i++ {
		p := f.nextPayload()
		err := d.DPUs[0].SubmitLocal(f.w.fullMethod(), p.wire, func(status uint16, errFlag bool, resp []byte) {
			done++
			if errFlag || !p.check(f.w.Echo, status, resp, nil) {
				bad++
			}
		})
		if err != nil {
			return fmt.Errorf("offload.step: %w", err)
		}
	}
	for done < n {
		if _, err := d.DPUs[0].Progress(); err != nil {
			return fmt.Errorf("offload.step: DPU: %w", err)
		}
		if _, err := d.ProgressHost(); err != nil {
			return fmt.Errorf("offload.step: host: %w", err)
		}
	}
	if bad > 0 {
		return fmt.Errorf("offload.step: %w (%d of %d)", errWrongResponse, bad, n)
	}
	return nil
}

func (f *replay) scan(p *payload) (*deser.Notes, error) { return f.des.Scan(f.plan, p.wire) }

// fill replays the notes into the reserved slot the way the DPU does: the
// whole slot on the inline path, [SG table][object area][segments] when the
// scan found scatter-gather payloads.
func (f *replay) fill(p *payload, no *deser.Notes) error {
	defer no.Release()
	segs := no.SegCount()
	if segs == 0 {
		_, err := f.des.Fill(f.plan, p.wire, no, arena.NewBump(f.slot[:no.Need()]), fillBase)
		return err
	}
	tbl := rpcrdma.SGTableSize(segs)
	segOff := tbl + alignUp8(no.Need())
	_, err := f.des.FillSG(f.plan, p.wire, no, arena.NewBump(f.slot[tbl:segOff]),
		fillBase+uint64(tbl), fillBase+uint64(segOff))
	if err != nil {
		return err
	}
	refs := f.des.PlaceSegments(p.wire, no, f.slot[segOff:segOff+no.SegBytes()], nil)
	descs := make([]rpcrdma.SGDesc, len(refs))
	for i, r := range refs {
		descs[i] = rpcrdma.SGDesc{Field: r.FieldNum, Off: uint32(segOff) + r.Off, Len: r.Len}
	}
	rpcrdma.PutSGTable(f.slot[:tbl], descs)
	return nil
}

// rpcrdmaEcho is one stepped round trip of the built object's size.
func (f *replay) rpcrdmaEcho() error {
	if err := f.rc.Enqueue(rpcrdma.CallSpec{Size: f.objSize, OnResponse: func(rpcrdma.Response) {}}); err != nil {
		return fmt.Errorf("rpcrdma.echo: %w", err)
	}
	for f.rc.Outstanding() > 0 {
		if _, err := f.rc.Progress(); err != nil {
			return fmt.Errorf("rpcrdma.echo: client: %w", err)
		}
		if _, err := f.rp.Progress(); err != nil {
			return fmt.Errorf("rpcrdma.echo: server: %w", err)
		}
	}
	return nil
}

func (f *replay) toArena() error {
	if _, err := objconv.MeasureMessage(f.respLay, f.respMsg); err != nil {
		return err
	}
	_, err := objconv.ToArena(abi.NewBuilder(arena.NewBump(f.respBuf), fillBase), f.respLay, f.respMsg)
	return err
}

func (f *replay) marshal() error {
	f.respMsg.Marshal(f.respBuf[:0])
	return nil
}

// traceRequest replays one request's payload through each layer, one span
// per call, all carrying the request's id and naming the span that caused
// them. The root span is the real Client.Call on the full stack.
func (f *replay) traceRequest(rec *recorder, p *payload, start, end time.Time) error {
	req := rec.newRequest()
	root := rec.add("stack.call", req, 0, start, end)
	timed := func(name string, parent int, op func() error) (int, error) {
		t := time.Now()
		err := op()
		return rec.add(name, req, parent, t, time.Now()), err
	}
	if _, err := timed("xrpc.echo", root, func() error { return f.xrpcEcho(p) }); err != nil {
		return err
	}
	step, err := timed("offload.step", root, func() error { return f.step(f.dep, 1) })
	if err != nil {
		return err
	}
	var no *deser.Notes
	if _, err := timed("deser.scan", step, func() (err error) { no, err = f.scan(p); return err }); err != nil {
		return err
	}
	if _, err := timed("deser.fill", step, func() error { return f.fill(p, no) }); err != nil {
		return err
	}
	if _, err := timed("rpcrdma.echo", step, f.rpcrdmaEcho); err != nil {
		return err
	}
	if f.w.Echo {
		if _, err := timed("objconv.to_arena", root, f.toArena); err != nil {
			return err
		}
		if _, err := timed("protomsg.marshal", root, f.marshal); err != nil {
			return err
		}
	}
	return nil
}

// timeLayers runs the timed loops and stores the per-layer metrics they
// produce in v. Each loop gets cfg.layerDur.
func (f *replay) timeLayers(cfg config, v map[string]float64) error {
	var err error
	set := func(nsName, allocName string, op func() error) {
		if err != nil {
			return
		}
		var ns, allocs float64
		if ns, allocs, err = timeOp(cfg.layerDur, op); err != nil {
			return
		}
		v[nsName] = ns
		if allocName != "" {
			v[allocName] = allocs
		}
	}
	set("xrpc.echo_ns", "xrpc.echo_allocs", func() error { return f.xrpcEcho(f.nextPayload()) })
	set("offload.step_ns", "offload.step_allocs", func() error { return f.step(f.dep, 1) })
	var traced float64
	if err == nil {
		traced, _, err = timeOp(cfg.layerDur, func() error { return f.step(f.depTraced, 1) })
	}
	set("offload.step_d64_ns", "", func() error { return f.step(f.dep, 64) })
	set("rpcrdma.echo_ns", "", f.rpcrdmaEcho)
	set("objconv.to_arena_ns", "", f.toArena)
	set("protomsg.marshal_ns", "", f.marshal)
	if err != nil {
		return err
	}
	v["offload.step_d64_ns"] /= 64
	v["trace.enabled_overhead_ns"] = traced - v["offload.step_ns"]

	// xrpc.pipelined: the same closed loop as the loaded phase, one
	// connection at the workload's depth, against the no-op server.
	lr, err := runLoaded(loadSpec{
		addr: f.echoLn.Addr().String(), method: f.w.fullMethod(), conns: 1, depth: f.w.Depth, echo: f.w.Echo,
		payloads: f.payloads, warm: cfg.layerDur / 2, window: cfg.layerDur, windows: 1,
	})
	if err != nil {
		return fmt.Errorf("xrpc.pipelined: %w", err)
	}
	if lr.failed > 0 {
		return fmt.Errorf("xrpc.pipelined: %w (%d)", errWrongResponse, lr.failed)
	}
	v["xrpc.pipelined_ns"] = 1e9 * lr.wall.Seconds() / float64(lr.completions)

	if err := f.timeDeser(cfg.layerDur, v); err != nil {
		return err
	}
	v["offload.self_ns"] = v["offload.step_ns"] - v["deser.scan_ns"] - v["deser.fill_ns"] - v["rpcrdma.echo_ns"]
	return nil
}

// timeDeser times Scan and Fill separately over whole passes of the
// workload's payloads, so every payload weighs the same and the byte
// counters repeat exactly for a given seed. Within a pass the payloads go
// through in groups (scan the group, then fill it) just large enough that
// the clock reads cost under 1 %: one 11 KB message at a time, 64 Small
// messages at a time.
func (f *replay) timeDeser(dur time.Duration, v map[string]float64) error {
	start := time.Now()
	no, err := f.scan(&f.payloads[0])
	if err != nil {
		return fmt.Errorf("deser.scan: %w", err)
	}
	group := min(len(f.payloads), 1+int(5*time.Microsecond/max(time.Since(start), 1)))
	if err := f.fill(&f.payloads[0], no); err != nil {
		return fmt.Errorf("deser.fill: %w", err)
	}

	notes := make([]*deser.Notes, group)
	var scanNS, fillNS []float64
	passes := 0
	f.des.Stats.Reset()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(dur)
	for passes < 5 || time.Now().Before(deadline) {
		var scanned, filled time.Duration
		for lo := 0; lo < len(f.payloads); lo += group {
			chunk := f.payloads[lo:min(lo+group, len(f.payloads))]
			t0 := time.Now()
			for i := range chunk {
				if notes[i], err = f.scan(&chunk[i]); err != nil {
					return fmt.Errorf("deser.scan: %w", err)
				}
			}
			t1 := time.Now()
			for i := range chunk {
				if err := f.fill(&chunk[i], notes[i]); err != nil {
					return fmt.Errorf("deser.fill: %w", err)
				}
			}
			scanned += t1.Sub(t0)
			filled += time.Since(t1)
		}
		scanNS = append(scanNS, float64(scanned)/float64(len(f.payloads)))
		fillNS = append(fillNS, float64(filled)/float64(len(f.payloads)))
		passes++
	}
	runtime.ReadMemStats(&m1)
	ops := float64(passes * len(f.payloads))
	st := f.des.Stats
	v["deser.scan_ns"] = quantile(scanNS, 0.1)
	v["deser.fill_ns"] = quantile(fillNS, 0.1)
	v["deser.allocs"] = float64(m1.Mallocs-m0.Mallocs) / ops
	v["deser.varint_bytes_per_req"] = float64(st.VarintBytes) / ops
	v["deser.copy_bytes_per_req"] = float64(st.CopyBytes) / ops
	v["deser.ref_bytes_per_req"] = float64(st.RefBytes) / ops
	return nil
}

// timeShared times the layers that do not depend on the workload: the RDMA
// verb, the arena allocator and the response cache. The cache is measured
// the same way on every workload (1024 Small keys, Zipf s = 1.1, 768
// entries) so the parked cache work has a before.
func timeShared(cfg config, env *workload.Env, v map[string]float64) error {
	link := fabric.NewLink()
	dpuPD := rdma.NewDevice("dpu", link, fabric.DPUToHost).AllocPD()
	hostPD := rdma.NewDevice("host", link, fabric.HostToDPU).AllocPD()
	dpuSendCQ, hostRecvCQ := rdma.NewCQ(1024), rdma.NewCQ(1024)
	dpuQP := dpuPD.CreateQP(dpuSendCQ, rdma.NewCQ(1024), nil)
	hostQP := hostPD.CreateQP(rdma.NewCQ(1024), hostRecvCQ, hostPD.RegisterMR(make([]byte, 1<<20)))
	rdma.Connect(dpuQP, hostQP)
	block := make([]byte, 8192)
	cqes := make([]rdma.CQE, 64)
	var err error
	if v["rdma.write_imm_ns"], _, err = timeOp(cfg.layerDur, func() error {
		if err := hostQP.PostRecv(rdma.RecvWR{}); err != nil {
			return err
		}
		if err := dpuQP.PostWriteImm(0, block, 0, 0); err != nil {
			return err
		}
		hostRecvCQ.Poll(cqes)
		dpuSendCQ.Poll(cqes)
		return nil
	}); err != nil {
		return fmt.Errorf("rdma.write_imm: %w", err)
	}

	alloc := arena.NewAllocator(1 << 20)
	if v["arena.alloc_free_ns"], _, err = timeOp(cfg.layerDur, func() error {
		off, err := alloc.Alloc(8192, 1024)
		if err != nil {
			return err
		}
		return alloc.Free(off)
	}); err != nil {
		return fmt.Errorf("arena.alloc_free: %w", err)
	}

	const keys, resident = 1024, 768
	rng := mt19937.New(cfg.seed)
	reqs := make([][]byte, keys+64) // the last 64 are never inserted
	for i := range reqs {
		reqs[i] = env.GenSmall(rng).Marshal(nil)
	}
	cache := rpccache.New(rpccache.Config{MaxEntries: resident, Methods: 1})
	zipf := workload.NewZipf(rng, keys, 1.1)
	const draws = 200000
	hits := 0
	for i := 0; i < draws; i++ {
		k := reqs[zipf.Next()]
		if _, _, ok := cache.Get(workload.MethodSmall, k); ok {
			hits++
		} else {
			cache.Put(workload.MethodSmall, k, nil, xrpc.StatusOK)
		}
	}
	v["rpccache.hit_frac"] = float64(hits) / draws
	// Rank 0 is the hottest key: resident after the Zipf stream.
	i := 0
	if v["rpccache.get_hit_ns"], _, err = timeOp(cfg.layerDur, func() error {
		if _, _, ok := cache.Get(workload.MethodSmall, reqs[0]); !ok {
			return errors.New("rpccache: hot key not resident")
		}
		return nil
	}); err != nil {
		return err
	}
	if v["rpccache.get_miss_ns"], _, err = timeOp(cfg.layerDur, func() error {
		i++
		if _, _, ok := cache.Get(workload.MethodSmall, reqs[keys+i%64]); ok {
			return errors.New("rpccache: never-inserted key found")
		}
		return nil
	}); err != nil {
		return err
	}
	v["rpccache.put_ns"], _, err = timeOp(cfg.layerDur, func() error {
		i++
		cache.Put(workload.MethodSmall, reqs[i%keys], nil, xrpc.StatusOK)
		return nil
	})
	return err
}

// modelPrediction runs the cost model's own harness on the scenario that
// carries the workload's message and returns its host and DPU time per
// request.
func modelPrediction(w workloadDef, cfg config, v map[string]float64) error {
	if w.Scenario == nil {
		return nil
	}
	opts := harness.DefaultOptions()
	opts.Requests = 4000
	opts.Seed = cfg.seed
	opts.DPUWorkers = w.Opts.DPUWorkers
	row, err := harness.RunOffload(*w.Scenario, opts)
	if err != nil {
		return fmt.Errorf("cpumodel: %w", err)
	}
	perReq := 1e9 * row.Result.SimSeconds / float64(row.Result.Requests)
	v["cpumodel.host_ns_per_req"] = row.Result.HostCores * perReq
	v["cpumodel.dpu_ns_per_req"] = row.Result.DPUCores * perReq
	return nil
}
