package harness

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dpurpc/internal/fault"
	"dpurpc/internal/metrics"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/offload"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// ConnScaleRow is one point of the connection scale-out sweep: the offloaded
// stack run with many client connections multiplexed onto a few shared
// poller goroutines (offload.PollerGroup), with or without churn — live
// connections killed mid-load and transparently redialed by the reconnect
// machinery. Every call resolves exactly once: OK (verified Echo payload)
// or a typed transient status.
type ConnScaleRow struct {
	// Conns is the sweep parameter; Shards is how many poller goroutines
	// carried them.
	Conns  int
	Shards int
	// Churn marks the leg where connections were killed mid-load.
	Churn    bool
	Requests int
	// Succeeded are calls that returned OK with a verified payload
	// (possibly after retries); Failed exhausted retries on a typed
	// transient status. Succeeded + Failed == Requests always.
	Succeeded uint64
	Failed    uint64
	// Retries counts retry attempts across all drivers.
	Retries uint64
	// Kills is how many churn breaks were injected; Reconnects how many
	// replacement connections the DPU servers adopted; RedialFails how many
	// redial attempts failed before succeeding (each doubles that
	// connection's backoff).
	Kills       uint64
	Reconnects  uint64
	RedialFails uint64
	// DPUSheds / HostSheds count admission-control rejections on each side
	// (nonzero only on the overload leg).
	DPUSheds  uint64
	HostSheds uint64
	// AdmitMaxInflight echoes the DPU-side gate the leg ran with (0 = off).
	AdmitMaxInflight int
	// DeadConns is how many connections failed terminally (reconnect budget
	// exhausted); their remaining calls fail typed.
	DeadConns   int
	GoodputRPS  float64
	WallSeconds float64
	// Latency of successful calls in microseconds, measured around the
	// retry loop.
	P50US float64
	P99US float64
}

// DefaultConnScaleCounts is the published sweep: 10 to 5000 connections.
func DefaultConnScaleCounts() []int { return []int{10, 100, 1000, 5000} }

// connScaleConfig returns the per-connection protocol configs sized for
// thousands of connections: small buffers (32 KiB total per connection
// instead of the Table I 19 MiB), a handful of credits, and non-blocking
// polls so a shard can sweep hundreds of connections per pass.
func connScaleConfig() (ccfg, scfg rpcrdma.Config) {
	small := rpcrdma.Config{
		BlockSize: 2048,
		SBufSize:  8 * 1024,
		Credits:   4,
		CQDepth:   16, // >= peer credits (4) + connect slack (8)
		BusyPoll:  true,
	}
	return small, small
}

// RunConnScale sweeps connection counts, running a churn-free and a churn
// leg at each: the acceptance gate for the reconnect machinery is that the
// churn leg's goodput stays comparable and every call still resolves
// exactly once.
func RunConnScale(opts Options, counts []int) ([]ConnScaleRow, error) {
	if len(counts) == 0 {
		counts = DefaultConnScaleCounts()
	}
	rows := make([]ConnScaleRow, 0, 2*len(counts))
	for _, conns := range counts {
		for _, churn := range []bool{false, true} {
			row, err := runConnScalePoint(opts, connScalePoint{
				conns: conns, churn: churn, driversPerConn: 1, maxAttempts: 8,
			})
			if err != nil {
				return nil, fmt.Errorf("connscale conns=%d churn=%v: %w", conns, churn, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RunOverload runs the admission-control leg: a few connections, a tight
// DPU-side admission gate, and a burst of concurrent drivers per connection
// with no retries — so overload surfaces as UNAVAILABLE sheds (counted in
// DPUSheds) instead of requests queueing toward DEADLINE_EXCEEDED.
func RunOverload(opts Options) (ConnScaleRow, error) {
	return runConnScalePoint(opts, connScalePoint{
		conns: 2, admitMaxInflight: 4, driversPerConn: 16, maxAttempts: 1,
	})
}

// connScalePayloads generates small Echo char-array payloads (64-512 byte
// strings) sized for the shrunken per-connection buffers of the sweep: the
// experiment measures connection scale, not bandwidth, and several messages
// must fit one 2 KiB block.
func connScalePayloads(env *workload.Env, opts Options) [][]byte {
	rng := mt19937.New(opts.Seed)
	out := make([][]byte, opts.DistinctMessages)
	for i := range out {
		n := 64 + int(rng.Uint32n(512-64))
		out[i] = env.GenChars(rng, n).Marshal(nil)
	}
	return out
}

// connScalePoint parameterizes one leg of the sweep.
type connScalePoint struct {
	conns            int
	churn            bool
	admitMaxInflight int // DPU-side gate (0 = off)
	driversPerConn   int
	maxAttempts      int // retry attempts per call (1 = no retries)
	// faultRate layers the chaos fault mix (chaosPlan) on top of churn, so
	// kills and injected faults race the same reconnect machinery — the
	// chaos-churn soak of `make chaos`.
	faultRate float64
}

// chaosPlan derives the injected fault mix from a fault rate: error CQEs
// at the full rate, delivery delays at half, drops at a twentieth (drops
// are connection-fatal through the seq-gap detector, so they dominate the
// damage long before they dominate the count).
func chaosPlan(rate float64, seed uint32) fault.Plan {
	return fault.Plan{
		ErrorRate: rate,
		DelayRate: rate / 2,
		Delay:     200 * time.Microsecond,
		DropRate:  rate / 20,
		Seed:      seed,
	}
}

func runConnScalePoint(opts Options, pt connScalePoint) (ConnScaleRow, error) {
	env := workload.NewEnv()
	impls := emptyImpls(env)
	ccfg, scfg := connScaleConfig()
	ccfg.RequestTimeout = 2 * time.Second
	shards := 8
	if shards > pt.conns {
		shards = pt.conns
	}
	hostPollers := 4
	if hostPollers > pt.conns {
		hostPollers = pt.conns
	}
	dcfg := offload.DeployConfig{
		Connections:         pt.conns,
		ClientCfg:           ccfg,
		ServerCfg:           scfg,
		HostPollers:         hostPollers,
		ReconnectBudget:     10,
		DPUAdmitMaxInflight: pt.admitMaxInflight,
	}
	if pt.faultRate > 0 {
		plan := chaosPlan(pt.faultRate, opts.Seed)
		dcfg.ClientFaults = &plan
		dcfg.ServerFaults = &plan
		dcfg.ClientCfg.RequestTimeout = 500 * time.Millisecond
	}
	d, err := offload.NewDeploymentWith(env.Table, impls, dcfg)
	if err != nil {
		return ConnScaleRow{}, err
	}

	// Host side: one goroutine per host poller. A poller reports a broken
	// connection's error once (the pass it reaps it), so churn shows up here
	// as tolerated ErrConnBroken results, not exits.
	stop := make(chan struct{})
	var hostWG sync.WaitGroup
	for _, p := range d.Pollers {
		hostWG.Add(1)
		go func(p *rpcrdma.ServerPoller) {
			defer hostWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, err := p.Progress()
				if err != nil && !errors.Is(err, rpcrdma.ErrConnBroken) {
					return
				}
				if n == 0 {
					// Idle pass: yield so the DPU shards and drivers are not
					// starved on small GOMAXPROCS.
					runtime.Gosched()
				}
			}
		}(p)
	}

	// DPU side: the poller group multiplexes every connection onto a few
	// shard goroutines.
	group := offload.NewPollerGroup(d.DPUs, shards)
	group.Start()

	perDriver := opts.Requests / (pt.conns * pt.driversPerConn)
	if perDriver == 0 {
		perDriver = 1
	}
	total := perDriver * pt.conns * pt.driversPerConn
	method := xrpc.FullMethodName("benchpb.Bench", env.Service.Methods[workload.MethodEcho].Name)
	payloads := connScalePayloads(env, opts)
	hist := metrics.NewHistogram([]float64{10, 20, 50, 100, 200, 500, 1000,
		1500, 2000, 3000, 5000, 7500, 10000, 15000, 20000, 30000, 50000,
		100000, 200000, 500000, 1000000})
	var succeeded, failed, untyped, retries atomic.Uint64

	start := time.Now()
	var workWG sync.WaitGroup
	for ci, dpuSrv := range d.DPUs {
		h := dpuSrv.XRPCHandler().Copying()
		for w := 0; w < pt.driversPerConn; w++ {
			workWG.Add(1)
			go func(h xrpc.ServerHandler, worker int) {
				defer workWG.Done()
				for i := 0; i < perDriver; i++ {
					payload := payloads[(worker+i)%len(payloads)]
					t0 := time.Now()
					var status uint16
					var resp []byte
					backoff := 200 * time.Microsecond
					for attempt := 0; ; attempt++ {
						status, resp = h(method, payload)
						if status == xrpc.StatusOK || attempt+1 >= pt.maxAttempts ||
							!xrpc.Retryable(status, nil) {
							break
						}
						retries.Add(1)
						time.Sleep(backoff)
						if backoff *= 2; backoff > 10*time.Millisecond {
							backoff = 10 * time.Millisecond
						}
					}
					switch {
					case status == xrpc.StatusOK:
						if bytes.Equal(resp, payload) {
							hist.Observe(float64(time.Since(t0).Nanoseconds()) / 1e3)
							succeeded.Add(1)
						} else {
							untyped.Add(1)
						}
					case status == xrpc.StatusUnavailable || status == xrpc.StatusDeadlineExceeded:
						failed.Add(1)
					default:
						untyped.Add(1)
					}
				}
			}(h, ci*pt.driversPerConn+w)
		}
	}

	// Churn: kill live connections while the drivers run. The owning shard
	// executes each kill and the reconnect machinery redials; drivers ride
	// through as transparent retries. Kills are paced by request progress,
	// not wall time, so the disruption is a fixed fraction of the load: a
	// wall-clock ticker would compound (kills slow progress, the leg runs
	// longer, more kills land) and the goodput comparison against the
	// churn-free leg would measure the ticker, not the reconnect cost.
	var kills atomic.Uint64
	churnStop := make(chan struct{})
	churnDone := make(chan struct{})
	if pt.churn {
		go func() {
			defer close(churnDone)
			rng := rand.New(rand.NewSource(int64(opts.Seed)))
			targetKills := pt.conns / 2
			if targetKills < 8 {
				targetKills = 8
			}
			if targetKills > 256 {
				targetKills = 256
			}
			killEvery := uint64(total / targetKills)
			if killEvery == 0 {
				killEvery = 1
			}
			// First kill lands immediately, so even a short leg exercises at
			// least one break/redial cycle. Churn stops at 90% of the load:
			// past that point most drivers have drained and each kill gates
			// the remaining progress, so the run degenerates into serial
			// kill-recover-resolve cycles that measure the pacing loop
			// rather than mid-load reconnect cost.
			group.Kill(rng.Intn(pt.conns))
			kills.Add(1)
			next := killEvery
			lastKillAt := uint64(total) - uint64(total)/10
			tick := time.NewTicker(200 * time.Microsecond)
			defer tick.Stop()
			for {
				select {
				case <-churnStop:
					return
				case <-tick.C:
					if next > lastKillAt {
						return
					}
					// One kill per tick even when progress has run ahead:
					// issuing the backlog as a burst would down dozens of
					// connections at the same instant.
					if succeeded.Load()+failed.Load()+untyped.Load() >= next {
						group.Kill(rng.Intn(pt.conns))
						kills.Add(1)
						next += killEvery
					}
				}
			}
		}()
	} else {
		close(churnDone)
	}

	// Watchdog: a stuck request (lost continuation, reconnect leak) must
	// surface as a typed failure here, never as a hang.
	driversDone := make(chan struct{})
	go func() { workWG.Wait(); close(driversDone) }()
	select {
	case <-driversDone:
	case <-time.After(3 * time.Minute):
		close(churnStop)
		group.Stop()
		close(stop)
		d.Close()
		return ConnScaleRow{}, errors.New("connscale point hung")
	}
	wall := time.Since(start)

	close(churnStop)
	<-churnDone
	group.Stop()
	close(stop)
	hostWG.Wait()

	row := ConnScaleRow{
		Conns:            pt.conns,
		Shards:           shards,
		Churn:            pt.churn,
		Requests:         total,
		Succeeded:        succeeded.Load(),
		Failed:           failed.Load(),
		Retries:          retries.Load(),
		Kills:            kills.Load(),
		AdmitMaxInflight: pt.admitMaxInflight,
		DeadConns:        group.DeadCount(),
		WallSeconds:      wall.Seconds(),
		GoodputRPS:       safeDiv(float64(succeeded.Load()), wall.Seconds()),
		P50US:            hist.Quantile(0.50),
		P99US:            hist.Quantile(0.99),
	}
	for _, dpuSrv := range d.DPUs {
		st := dpuSrv.Stats()
		row.Reconnects += st.Reconnects
		row.RedialFails += st.RedialFails
		row.DPUSheds += st.Sheds
	}
	for _, p := range d.Pollers {
		for _, conn := range p.Conns() {
			row.HostSheds += conn.Counters.AdmissionSheds
		}
		for _, c := range p.DeadCounters() {
			row.HostSheds += c.AdmissionSheds
		}
	}
	d.Close()

	if n := untyped.Load(); n > 0 {
		return row, fmt.Errorf("%d calls failed untyped", n)
	}
	if got := row.Succeeded + row.Failed; got != uint64(total) {
		return row, fmt.Errorf("resolved %d of %d calls", got, total)
	}
	if !pt.churn && pt.admitMaxInflight == 0 && row.Failed > 0 {
		return row, fmt.Errorf("%d failures with no churn and no admission gate", row.Failed)
	}
	return row, nil
}
