package harness

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpurpc/internal/fault"
	"dpurpc/internal/metrics"
	"dpurpc/internal/offload"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// ChaosRow is one point of the fault-rate sweep: the offloaded datapath
// driven end to end (xRPC clients with retry over TCP, DPU pipeline,
// RPC-over-RDMA with fault injection, host duplex workers) at one injected
// fault rate. Goodput counts only calls that returned OK with a verified
// payload; everything else must have failed with a typed transient status.
type ChaosRow struct {
	// FaultRate is the sweep parameter: the per-operation error-CQE
	// probability. The derived plan adds delays at half this rate and drops
	// at a twentieth (see chaosPlan).
	FaultRate float64
	// Plan is the compact fault.Plan label actually injected.
	Plan     string
	Requests int
	// CommitBatch is the commit-coalescing target the point ran with: chaos
	// always soaks the batching path, so injected faults land inside
	// coalesced runs and the typed-error recovery must stay batch-safe.
	CommitBatch int
	// Succeeded are calls that returned OK (possibly after retries).
	Succeeded uint64
	// Failed are calls that exhausted retries and surfaced a typed
	// transient status (UNAVAILABLE / DEADLINE_EXCEEDED). Succeeded +
	// Failed always equals Requests — anything else is reported as an
	// error by RunChaos.
	Failed uint64
	// Retries counts xRPC-level retry attempts across all clients.
	Retries uint64
	// SendFaultRetries counts transparent retry-in-place recoveries of
	// injected post faults (no client-visible effect).
	SendFaultRetries uint64
	// TimedOut / LateDropped are the client-side deadline-reaper counters.
	TimedOut    uint64
	LateDropped uint64
	// ConnsBroken is how many of the connections died (seq gap, poisoned
	// CQ) during the run; their remaining calls fail typed.
	ConnsBroken int
	// Injected aggregates the injector's decision counters over all
	// connections (both directions).
	Injected fault.Stats
	// GoodputRPS is Succeeded divided by wall time.
	GoodputRPS  float64
	WallSeconds float64
	// Latency of successful calls, in microseconds, measured around the
	// retry loop (so a retried call's latency includes its backoff).
	P50US float64
	P99US float64
	// FlightDumps counts the black-box flight-recorder dumps the point's
	// connections emitted (deadline reaps and connection breaks trigger
	// them automatically; see rpcrdma.Config.FlightRecorder).
	FlightDumps int
	// DumpSample is the rendered text of one captured dump (the first), so
	// a chaos report carries the protocol-event post-mortem inline.
	DumpSample string
}

// DefaultChaosRates is the published sweep: a fault-free control point plus
// 1%, 5%, and 10% injected fault rates.
func DefaultChaosRates() []float64 { return []float64{0, 0.01, 0.05, 0.10} }

// chaosPlan derives the injected fault mix from the sweep rate: error CQEs
// at the full rate, delivery delays at half, drops at a twentieth (drops
// are connection-fatal through the seq-gap detector, so they dominate the
// damage long before they dominate the count).
func chaosPlan(rate float64, seed uint32) fault.Plan {
	if rate == 0 {
		return fault.Plan{}
	}
	return fault.Plan{
		ErrorRate: rate,
		DelayRate: rate / 2,
		Delay:     200 * time.Microsecond,
		DropRate:  rate / 20,
		Seed:      seed,
	}
}

// RunChaos sweeps the fault rates over the full offloaded stack and
// reports goodput and latency at each point. Every call must resolve
// exactly once — OK or typed — within the run; a hang or an untyped
// failure is returned as an error.
func RunChaos(opts Options, rates []float64) ([]ChaosRow, error) {
	if len(rates) == 0 {
		rates = DefaultChaosRates()
	}
	rows := make([]ChaosRow, 0, len(rates))
	for _, rate := range rates {
		row, err := runChaosPoint(opts, rate)
		if err != nil {
			return nil, fmt.Errorf("chaos rate %g: %w", rate, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runChaosPoint(opts Options, rate float64) (ChaosRow, error) {
	env := workload.NewEnv()
	impls := emptyImpls(env)
	conns := opts.Connections
	if conns < 2 {
		conns = 2 // at least two conns, so one can die while service continues
	}
	requests := opts.Requests
	if requests > 2000 {
		requests = 2000 // sync RPCs over loopback; keep the sweep bounded
	}

	ccfg := opts.ClientCfg
	scfg := opts.ServerCfg
	// Blocking CQ waits: the chaos point runs many goroutines and busy
	// pollers starve the workers on small machines.
	ccfg.BusyPoll, scfg.BusyPoll = false, false
	ccfg.WaitTimeout, scfg.WaitTimeout = 100*time.Microsecond, 100*time.Microsecond
	plan := chaosPlan(rate, opts.Seed)
	commitBatch := opts.CommitBatch
	if commitBatch == 0 {
		// Chaos soaks the coalescing path by default: faults must recover
		// typed even when they land inside a multi-message doorbell batch.
		commitBatch = 8
	}
	dcfg := offload.DeployConfig{
		Connections:        conns,
		ClientCfg:          ccfg,
		ServerCfg:          scfg,
		DPUWorkers:         opts.DPUWorkers,
		HostWorkers:        opts.HostWorkers,
		CommitBatch:        commitBatch,
		CommitFlushTimeout: opts.CommitFlushTimeout,
	}
	// Flight recorders fly on every chaos connection: when a fault cascades
	// into a typed failure, the dump carries the protocol events leading up
	// to it. The sink is shared across connections and goroutine-safe.
	var dumpMu sync.Mutex
	var dumps []rpcrdma.FlightDump
	sinkArmed := true
	dcfg.ClientCfg.FlightRecorder = 256
	dcfg.ClientCfg.FlightSink = func(d rpcrdma.FlightDump) {
		dumpMu.Lock()
		if sinkArmed {
			dumps = append(dumps, d)
		}
		dumpMu.Unlock()
	}
	if plan.Enabled() {
		dcfg.ClientFaults = &plan
		dcfg.ServerFaults = &plan
		dcfg.RequestTimeout = 250 * time.Millisecond
	}
	d, err := offload.NewDeploymentWith(env.Table, impls, dcfg)
	if err != nil {
		return ChaosRow{}, err
	}

	stop := make(chan struct{})
	var hostWG sync.WaitGroup
	hostWG.Add(1)
	go func() {
		defer hostWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.ProgressHost(); err != nil && !errors.Is(err, rpcrdma.ErrConnBroken) {
				return
			}
		}
	}()

	type connReport struct {
		broken   bool
		counters rpcrdma.Counters
		stats    fault.Stats
	}
	reports := make(chan connReport, len(d.DPUs))
	for _, dpuSrv := range d.DPUs {
		go func(dpuSrv *offload.DPUServer) {
			for {
				select {
				case <-stop:
					rep := connReport{broken: dpuSrv.Client().Broken() != nil}
					if !rep.broken {
						dpuSrv.Client().Drain(5 * time.Second)
					}
					rep.counters = dpuSrv.Client().Counters
					rep.stats = dpuSrv.Client().FaultInjector().Stats()
					dpuSrv.Close()
					reports <- rep
					return
				default:
					if _, err := dpuSrv.Progress(); err != nil {
						dpuSrv.Close()
						<-stop
						reports <- connReport{broken: true,
							counters: dpuSrv.Client().Counters,
							stats:    dpuSrv.Client().FaultInjector().Stats()}
						return
					}
				}
			}
		}(dpuSrv)
	}

	// Echo is the workload whose responses carry the request back, so it is
	// the one that can verify payload integrity end to end.
	const clientsPerConn = 2
	method := xrpc.FullMethodName("benchpb.Bench", env.Service.Methods[workload.MethodEcho].Name)
	payloads := genPayloads(env, workload.ScenarioChars, opts)
	hist := metrics.NewHistogram([]float64{10, 20, 50, 100, 200, 500, 1000,
		1500, 2000, 3000, 5000, 7500, 10000, 15000, 20000, 30000, 50000,
		100000, 200000, 500000, 1000000})
	var succeeded, failed, untyped atomic.Uint64
	var clients []*xrpc.Client
	var workWG sync.WaitGroup
	perWorker := requests / (conns * clientsPerConn)
	if perWorker == 0 {
		perWorker = 1
	}
	total := perWorker * conns * clientsPerConn
	teardown := func() {
		close(stop)
		for range d.DPUs {
			<-reports
		}
		hostWG.Wait()
		d.Close()
	}
	start := time.Now()
	for _, dpuSrv := range d.DPUs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			teardown()
			return ChaosRow{}, err
		}
		srv := xrpc.NewAsyncServer(dpuSrv.XRPCHandler())
		go srv.Serve(ln)
		defer srv.Close()
		for c := 0; c < clientsPerConn; c++ {
			cl, err := xrpc.Dial(ln.Addr().String())
			if err != nil {
				teardown()
				return ChaosRow{}, err
			}
			cl.SetRetryPolicy(xrpc.RetryPolicy{
				MaxAttempts: 4,
				BaseBackoff: 200 * time.Microsecond,
				RetryBudget: float64(perWorker),
			})
			clients = append(clients, cl)
			workWG.Add(1)
			go func(cl *xrpc.Client, worker int) {
				defer workWG.Done()
				for i := 0; i < perWorker; i++ {
					payload := payloads[(worker+i)%len(payloads)]
					t0 := time.Now()
					status, resp, err := cl.CallRetry(method, payload, 10*time.Second)
					switch {
					case err == nil && status == xrpc.StatusOK:
						if bytes.Equal(resp, payload) {
							hist.Observe(float64(time.Since(t0).Nanoseconds()) / 1e3)
							succeeded.Add(1)
						} else {
							untyped.Add(1)
						}
					case err == nil && (status == xrpc.StatusUnavailable ||
						status == xrpc.StatusDeadlineExceeded):
						failed.Add(1)
					default:
						untyped.Add(1)
					}
				}
			}(cl, len(clients))
		}
	}

	finished := make(chan struct{})
	go func() { workWG.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		teardown()
		return ChaosRow{}, errors.New("chaos point hung")
	}
	wall := time.Since(start)

	row := ChaosRow{
		FaultRate:   rate,
		Plan:        plan.String(),
		Requests:    total,
		CommitBatch: commitBatch,
		Succeeded:   succeeded.Load(),
		Failed:      failed.Load(),
		WallSeconds: wall.Seconds(),
		GoodputRPS:  safeDiv(float64(succeeded.Load()), wall.Seconds()),
		P50US:       hist.Quantile(0.50),
		P99US:       hist.Quantile(0.99),
	}
	for _, cl := range clients {
		row.Retries += cl.Retries()
		cl.Close()
	}
	// Disarm the sink and snapshot the black-box dumps before stopping the
	// pollers: teardown closes every DPU server, and the deliberate aborts
	// that causes record "connection broken" dumps on each surviving
	// connection — shutdown noise, not chaos events.
	dumpMu.Lock()
	sinkArmed = false
	row.FlightDumps = len(dumps)
	if len(dumps) > 0 {
		row.DumpSample = dumps[0].String()
	}
	dumpMu.Unlock()
	close(stop)
	for range d.DPUs {
		rep := <-reports
		if rep.broken {
			row.ConnsBroken++
		}
		row.SendFaultRetries += rep.counters.SendFaultRetries
		row.TimedOut += rep.counters.RequestsTimedOut
		row.LateDropped += rep.counters.LateResponsesDropped
		row.Injected.Decisions += rep.stats.Decisions
		row.Injected.Fails += rep.stats.Fails
		row.Injected.Drops += rep.stats.Drops
		row.Injected.Delays += rep.stats.Delays
		row.Injected.Overflows += rep.stats.Overflows
		row.Injected.Stalls += rep.stats.Stalls
	}
	hostWG.Wait()
	d.Close()

	if n := untyped.Load(); n > 0 {
		return row, fmt.Errorf("%d calls failed untyped", n)
	}
	if got := row.Succeeded + row.Failed; got != uint64(total) {
		return row, fmt.Errorf("resolved %d of %d calls", got, total)
	}
	if rate == 0 && row.Failed > 0 {
		return row, fmt.Errorf("%d failures with no faults injected", row.Failed)
	}
	return row, nil
}
