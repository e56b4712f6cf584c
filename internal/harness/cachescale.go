package harness

import (
	"fmt"
	"time"

	"dpurpc/internal/dpu"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/offload"
	"dpurpc/internal/workload"
)

// CacheScaleRow is one point of the response-cache sweep: one skew level of
// the zipfian key popularity crossed with one cache capacity, measured over
// a steady-state window after a warmup phase has filled the cache. The
// uncached reference leg of each skew (CacheEntries == 0) anchors the
// HostReduction column: hits never reach the host, so host core time per
// request collapses toward (1 - hit rate) of the reference.
type CacheScaleRow struct {
	Scenario workload.Scenario
	// Skew is the zipf exponent s of the key popularity (0 = uniform).
	Skew float64
	// Keys is the distinct request population the zipf draws from.
	Keys int
	// CacheEntries is the cache capacity in entries (0 = uncached leg).
	CacheEntries int
	// HitRate is hits over probes within the measured window only — the
	// warmup phase's compulsory misses are excluded by the counter delta.
	HitRate     float64
	CacheHits   uint64
	CacheMisses uint64
	// ResidentEntries/ResidentBytes are the cache occupancy at window end.
	ResidentEntries int
	ResidentBytes   int
	// Result is the machine-model projection for the measured window.
	Result dpu.Result
	// HostNSPerReq / DPUNSPerReq are modeled core time per completed
	// request (hits and host-answered requests both count as completed).
	HostNSPerReq float64
	DPUNSPerReq  float64
	// HostReduction is the same-skew uncached leg's HostNSPerReq over this
	// leg's (1.0 on the uncached legs themselves) — the Fig. 8c-style
	// headline of the experiment.
	HostReduction float64
	// WallRPS is this machine's wall-clock rate over the measured window.
	WallRPS float64
}

// DefaultCacheSkews is the zipf exponent grid: uniform, then the s range
// observed for web-service key popularity.
func DefaultCacheSkews() []float64 { return []float64{0, 0.9, 1.1, 1.3} }

// DefaultCacheEntries is the capacity grid. It tops out below
// DefaultCacheKeys on purpose: a cache holding every key would answer the
// whole measured window and leave nothing for the reduction ratio to divide.
func DefaultCacheEntries() []int { return []int{64, 256, 512, 768} }

// DefaultCacheKeys is the distinct request population.
const DefaultCacheKeys = 1024

// cacheWarmFactor sizes the warmup phase: enough zipf draws per key that
// the resident set reflects steady-state popularity, not arrival order.
const cacheWarmFactor = 4

// CacheScale sweeps zipf skew x cache capacity over the Ints workload (the
// scenario with the paper's largest host-CPU reduction, Fig. 8c). Each skew
// runs an uncached reference leg first, then the capacity grid; every leg
// warms the cache with cacheWarmFactor*keys requests before the measured
// window, so the rows report steady-state hit rates, not cold-start ones.
func CacheScale(opts Options, skews []float64, entries []int) ([]CacheScaleRow, error) {
	s := workload.ScenarioInts
	rows := make([]CacheScaleRow, 0, len(skews)*(len(entries)+1))
	for _, skew := range skews {
		base, err := runCacheLeg(s, opts, skew, DefaultCacheKeys, 0)
		if err != nil {
			return nil, fmt.Errorf("cachescale s=%.1f uncached: %w", skew, err)
		}
		base.HostReduction = 1
		rows = append(rows, base)
		for _, e := range entries {
			row, err := runCacheLeg(s, opts, skew, DefaultCacheKeys, e)
			if err != nil {
				return nil, fmt.Errorf("cachescale s=%.1f entries=%d: %w", skew, e, err)
			}
			row.HostReduction = safeDiv(base.HostNSPerReq, row.HostNSPerReq)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runCacheLeg runs one (skew, capacity) point: build the deployment with the
// scenario's method opted into the cache, drive the warmup phase, snapshot
// every counter, drive the measured window, and price the counter delta.
func runCacheLeg(s workload.Scenario, opts Options, skew float64, keys, cacheEntries int) (CacheScaleRow, error) {
	env := workload.NewEnv()
	method := methodName(env, s)
	dcfg := opts.deployConfig()
	conns := dcfg.Connections
	if cacheEntries > 0 {
		dcfg.CacheMethods = []string{method}
		dcfg.CacheMaxEntries = cacheEntries
	}
	d, err := offload.NewDeploymentWith(env.Table, emptyImpls(env), dcfg)
	if err != nil {
		return CacheScaleRow{}, err
	}
	defer d.Close()

	// The key population: `keys` distinct serialized requests. The zipf
	// ranks index into it, so rank 0 is the hottest request. One generator
	// drives both phases — a fixed seed reproduces the exact sequence.
	rng := mt19937.New(opts.Seed)
	payloads := make([][]byte, keys)
	for i := range payloads {
		payloads[i] = env.Gen(s, rng).Marshal(nil)
	}
	z := workload.NewZipf(rng, keys, skew)

	if err := driveZipf(d, method, payloads, z, cacheWarmFactor*keys, opts.Concurrency, conns); err != nil {
		return CacheScaleRow{}, fmt.Errorf("warmup: %w", err)
	}
	before := snapshotCounters(d)
	start := time.Now()
	if err := driveZipf(d, method, payloads, z, opts.Requests, opts.Concurrency, conns); err != nil {
		return CacheScaleRow{}, err
	}
	wall := time.Since(start)

	usage, fig := usageFromCounters(snapshotCounters(d).sub(before), method, opts)
	if w := opts.ServerCfg.HostWorkers; w > 1 {
		usage.HostWorkers = conns * w
	}
	row := CacheScaleRow{
		Scenario:     s,
		Skew:         skew,
		Keys:         keys,
		CacheEntries: cacheEntries,
		HitRate:      fig.CacheHitRate,
		CacheHits:    fig.CacheHits,
		CacheMisses:  fig.CacheMisses,
		Result:       opts.Machine.Analyze(usage),
		HostNSPerReq: safeDiv(usage.HostNS, float64(usage.Requests)),
		DPUNSPerReq:  safeDiv(usage.DPUNS, float64(usage.Requests)),
		WallRPS:      safeDiv(float64(opts.Requests), wall.Seconds()),
	}
	if d.Cache != nil {
		row.ResidentEntries = d.Cache.Len()
		row.ResidentBytes = d.Cache.Bytes()
	}
	return row, nil
}

// driveZipf pushes `requests` calls through the deployment, each request
// drawn from the key population by the zipf generator, and drains them all.
func driveZipf(d *offload.Deployment, method string, payloads [][]byte, z *workload.Zipf, requests, concurrency, conns int) error {
	submitted, completed, failed := 0, 0, 0
	for completed < requests {
		for submitted < requests && submitted-completed < concurrency {
			dpuSrv := d.DPUs[submitted%conns]
			err := dpuSrv.SubmitLocal(method, payloads[z.Next()],
				func(status uint16, errFlag bool, resp []byte) {
					completed++
					if status != 0 || errFlag {
						failed++
					}
				})
			if err != nil {
				return err
			}
			submitted++
		}
		for _, dpuSrv := range d.DPUs {
			if _, err := dpuSrv.Progress(); err != nil {
				return err
			}
		}
		if _, err := d.ProgressHost(); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d failed calls", failed)
	}
	return nil
}
