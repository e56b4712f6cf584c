package harness

import (
	"fmt"
	"time"

	"dpurpc/internal/metrics"
	"dpurpc/internal/workload"
)

// LatencyReport summarizes the wall-clock RPC-over-RDMA request latency of
// a real offloaded run on this machine, measured by the library-level
// instrumentation (rpcrdma.Config.LatencyObserver). This experiment goes
// beyond the paper (which reports no latency figures); absolute values are
// machine-local.
type LatencyReport struct {
	Scenario workload.Scenario
	Requests int
	P50US    float64
	P90US    float64
	P99US    float64
	MeanUS   float64
	WallRPS  float64
}

// MeasureLatency drives the offloaded datapath for the scenario at the
// given concurrency and reports the latency distribution.
func MeasureLatency(s workload.Scenario, opts Options) (LatencyReport, error) {
	// Up to 1 s, like the chaos and connscale histograms: x8000 Chars
	// requests wait tens of milliseconds on a 2-vCPU machine, and a
	// quantile past the top bound is +Inf, which -format json cannot write.
	hist := metrics.NewHistogram([]float64{1, 2, 5, 10, 20, 50, 100, 200, 500,
		1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000, 1000000})
	o := opts
	o.ClientCfg = o.ClientCfg.WithDefaults(true)
	o.ClientCfg.LatencyObserver = func(ns float64) { hist.Observe(ns / 1e3) }

	start := time.Now()
	row, err := RunOffload(s, o)
	if err != nil {
		return LatencyReport{}, err
	}
	elapsed := time.Since(start)
	if hist.Count() != uint64(row.Result.Requests) {
		return LatencyReport{}, fmt.Errorf("harness: observed %d latencies for %d requests",
			hist.Count(), row.Result.Requests)
	}
	return LatencyReport{
		Scenario: s,
		Requests: int(row.Result.Requests),
		P50US:    hist.Quantile(0.50),
		P90US:    hist.Quantile(0.90),
		P99US:    hist.Quantile(0.99),
		MeanUS:   hist.Sum() / float64(hist.Count()),
		WallRPS:  float64(row.Result.Requests) / elapsed.Seconds(),
	}, nil
}
