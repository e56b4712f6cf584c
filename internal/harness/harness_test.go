package harness

import (
	"math"
	"testing"

	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/workload"
)

// testOptions shrinks the run so the suite stays fast while the modeled
// metrics (which depend on per-request averages, not totals) stay accurate.
func testOptions() Options {
	o := DefaultOptions()
	o.Requests = 6000
	return o
}

func ratio(a, b float64) float64 { return a / b }

func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

func TestFig8SmallAnchors(t *testing.T) {
	opts := testOptions()
	base, err := RunBaseline(workload.ScenarioSmall, opts)
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunOffload(workload.ScenarioSmall, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 8a: the small scenario reaches ~9x10^7 RPS and offload matches
	// the baseline.
	if !within(base.Result.RPS, 9e7, 0.15) {
		t.Errorf("baseline small RPS = %.3g, paper says ~9e7", base.Result.RPS)
	}
	if r := ratio(off.Result.RPS, base.Result.RPS); r < 0.8 || r > 1.25 {
		t.Errorf("offload/baseline RPS ratio = %.2f, paper shows parity", r)
	}
	// Fig. 8c: host CPU usage drops ~1.8x.
	red := base.Result.HostCores / off.Result.HostCores
	if !within(red, 1.8, 0.25) {
		t.Errorf("small host CPU reduction = %.2fx, paper says 1.8x", red)
	}
	// Fig. 8b: the offloaded path moves more PCIe bytes per request (the
	// 15-byte wire message becomes a 40-byte object plus protocol framing).
	if off.PCIeBytesPerReq <= base.PCIeBytesPerReq {
		t.Errorf("offload PCIe B/req %.0f <= baseline %.0f",
			off.PCIeBytesPerReq, base.PCIeBytesPerReq)
	}
	// Credits never reach zero for the small workload (Sec. VI-A: the
	// inequality credits > concurrency*msgsize/blocksize holds here).
	if off.MinCredits == 0 {
		t.Error("credits reached zero on the small workload")
	}
	// The baseline saturates the 8 host threads.
	if !within(base.Result.HostCores, 8, 0.01) {
		t.Errorf("baseline host cores = %.2f, want 8", base.Result.HostCores)
	}
}

func TestFig8IntsAnchors(t *testing.T) {
	opts := testOptions()
	base, err := RunBaseline(workload.ScenarioInts, opts)
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunOffload(workload.ScenarioInts, opts)
	if err != nil {
		t.Fatal(err)
	}
	// RPS parity (Fig. 8a): the 1:2 core ratio carries into the datapath.
	if r := ratio(off.Result.RPS, base.Result.RPS); r < 0.75 || r > 1.3 {
		t.Errorf("ints RPS parity broken: %.2f", r)
	}
	// Fig. 8c: the varint workload shows the largest host CPU reduction
	// (paper: 8.0x, "seven host cores freed").
	red := base.Result.HostCores / off.Result.HostCores
	if red < 5.5 || red > 10 {
		t.Errorf("ints host CPU reduction = %.2fx, paper says 8.0x", red)
	}
	if freed := base.Result.HostCores - off.Result.HostCores; freed < 6 || freed > 7.9 {
		t.Errorf("ints freed %.1f cores, paper says ~7", freed)
	}
	// Fig. 8b: deserialized ints are ~2x the wire size (varint compression
	// 2.06x in the paper), so offload roughly doubles PCIe traffic.
	r := off.PCIeBytesPerReq / base.PCIeBytesPerReq
	if r < 1.5 || r > 2.3 {
		t.Errorf("ints PCIe expansion = %.2fx, paper implies ~1.9x", r)
	}
	// The offloaded DPU runs saturated (16 cores, Sec. VI-C: "maximum
	// performance is reached on sixteen DPU threads").
	if off.Result.Bottleneck != "dpu-cpu" {
		t.Errorf("ints offload bottleneck = %s", off.Result.Bottleneck)
	}
}

func TestFig8CharsAnchors(t *testing.T) {
	opts := testOptions()
	base, err := RunBaseline(workload.ScenarioChars, opts)
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunOffload(workload.ScenarioChars, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 8b: chars barely expand (1.01x compression): bandwidth is very
	// similar in both modes and hits the PCIe ceiling (paper: ~180 Gb/s; we
	// model the link at 200).
	if r := off.PCIeBytesPerReq / base.PCIeBytesPerReq; r < 0.95 || r > 1.1 {
		t.Errorf("chars PCIe ratio = %.2f, paper says ~1.01", r)
	}
	if base.Result.BandwidthGbps < 150 || off.Result.BandwidthGbps < 150 {
		t.Errorf("chars bandwidth = %.0f/%.0f Gb/s, paper shows ~180",
			base.Result.BandwidthGbps, off.Result.BandwidthGbps)
	}
	if base.Result.Bottleneck != "pcie" || off.Result.Bottleneck != "pcie" {
		t.Errorf("chars bottlenecks = %s/%s, want pcie",
			base.Result.Bottleneck, off.Result.Bottleneck)
	}
	// Fig. 8a: RPS parity follows from the shared bottleneck.
	if r := ratio(off.Result.RPS, base.Result.RPS); r < 0.9 || r > 1.1 {
		t.Errorf("chars RPS parity broken: %.2f", r)
	}
	// Fig. 8c: Unicode validation + data movement offload reduces host CPU
	// by ~1.5x (paper: 1.53x).
	red := base.Result.HostCores / off.Result.HostCores
	if red < 1.3 || red > 2.2 {
		t.Errorf("chars host CPU reduction = %.2fx, paper says 1.53x", red)
	}
}

func TestFig8ReductionOrdering(t *testing.T) {
	// The cross-scenario shape of Fig. 8c: the varint-heavy workload
	// benefits far more than the other two.
	opts := testOptions()
	rows, err := RunFig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	reductions := map[workload.Scenario]float64{}
	var baseCores = map[workload.Scenario]float64{}
	for _, r := range rows {
		if r.Mode == ModeCPU {
			baseCores[r.Scenario] = r.Result.HostCores
		}
	}
	for _, r := range rows {
		if r.Mode == ModeDPU {
			reductions[r.Scenario] = baseCores[r.Scenario] / r.Result.HostCores
		}
	}
	ints := reductions[workload.ScenarioInts]
	if ints <= 2*reductions[workload.ScenarioSmall] || ints <= 2*reductions[workload.ScenarioChars] {
		t.Errorf("ints reduction %.1fx should dominate small %.1fx and chars %.1fx",
			ints, reductions[workload.ScenarioSmall], reductions[workload.ScenarioChars])
	}
}

func TestFig7Anchors(t *testing.T) {
	opts := DefaultOptions()
	rows, err := Fig7(opts, []int{16, 1024, 4096}, 0)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig7Row{}
	for _, r := range rows {
		byKey[string(r.Kind)+itoa(r.Count)] = r
	}
	// Int tail slope ~2.75 ns/elem on the host.
	big, mid := byKey["int array4096"], byKey["int array1024"]
	slope := (big.CPUNS - mid.CPUNS) / (4096 - 1024)
	if !within(slope, 2.75, 0.1) {
		t.Errorf("int slope = %.3f ns/elem, paper says 2.75", slope)
	}
	// DPU/CPU ratio approaches 1.89x for ints.
	if !within(big.Ratio, 1.89, 0.05) {
		t.Errorf("int ratio = %.2f, paper says 1.89", big.Ratio)
	}
	// Char tail slope ~42.5 ns per 1024 elements.
	cbig, cmid := byKey["char array4096"], byKey["char array1024"]
	cslope := (cbig.CPUNS - cmid.CPUNS) / 3 // per 1024
	if !within(cslope, 42.5, 0.1) {
		t.Errorf("char slope = %.2f ns/KiB, paper says 42.5", cslope)
	}
	// Char DPU/CPU ratio heads toward 2.51x (message overhead keeps the
	// small counts below it, as the paper's Fig. 7 also shows).
	if cbig.Ratio < 2.2 || cbig.Ratio > 2.6 {
		t.Errorf("char ratio at 4096 = %.2f, want approaching 2.51", cbig.Ratio)
	}
	// The DPU is slower everywhere.
	for _, r := range rows {
		if r.DPUNS <= r.CPUNS {
			t.Errorf("%s/%d: DPU not slower", r.Kind, r.Count)
		}
	}
}

func TestBlockSizeSweepOptimumAt8K(t *testing.T) {
	opts := testOptions()
	opts.Requests = 4000
	rows, err := BlockSizeSweep(opts, DefaultBlockSizes())
	if err != nil {
		t.Fatal(err)
	}
	best := rows[0]
	for _, r := range rows {
		if r.RPS > best.RPS {
			best = r
		}
	}
	if best.BlockSize != 8<<10 {
		t.Errorf("optimal block size = %d KiB, paper says 8 KiB", best.BlockSize>>10)
	}
	// Batching grows with block size.
	if rows[0].MsgsPerBlock >= rows[len(rows)-1].MsgsPerBlock {
		t.Error("messages per block should grow with block size")
	}
}

func TestPollModesBusyFaster(t *testing.T) {
	opts := testOptions()
	opts.Requests = 4000
	rows, err := PollModes(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	busy, blocking := rows[0], rows[1]
	speedup := busy.RPS/blocking.RPS - 1
	if speedup < 0.03 || speedup > 0.2 {
		t.Errorf("busy-poll speedup = %.1f%%, paper says up to ~10%%", 100*speedup)
	}
	if busy.DPUCPUPercent != 100 {
		t.Error("busy polling should report 100% CPU")
	}
	if blocking.HostCPUPercent >= 100 {
		t.Error("blocking mode should report sub-100% host CPU")
	}
}

func TestTableIContents(t *testing.T) {
	rows := TableI(DefaultOptions())
	find := func(param string) TableIRow {
		for _, r := range rows {
			if r.Parameter == param {
				return r
			}
		}
		t.Fatalf("missing row %q", param)
		return TableIRow{}
	}
	if r := find("Threads"); r.Client != "16" || r.Server != "8" {
		t.Errorf("threads row = %+v", r)
	}
	if r := find("Credits"); r.Client != "256" || r.Server != "256" {
		t.Errorf("credits row = %+v", r)
	}
	if r := find("Block Size"); r.Client != "8 KiB" {
		t.Errorf("block size row = %+v", r)
	}
	if r := find("Buffer Sizes"); r.Client != "3 MiB" || r.Server != "16 MiB" {
		t.Errorf("buffer row = %+v", r)
	}
	if r := find("Concurrency"); r.Client != "1024" || r.Server != "n/a" {
		t.Errorf("concurrency row = %+v", r)
	}
}

func TestCreditsInequalityDocumented(t *testing.T) {
	// Sec. VI-A: credits > concurrency x msgsize / blocksize must hold for
	// credits never to reach zero. Verify it holds for Small under Table I
	// parameters (and that the run confirms it).
	opts := testOptions()
	slot := 16 + 48 // header + aligned small object
	blocksNeeded := float64(rpcrdma.DefaultConcurrency*slot) / float64(opts.ClientCfg.WithDefaults(true).BlockSize)
	if blocksNeeded >= float64(opts.ClientCfg.WithDefaults(true).Credits) {
		t.Fatalf("Table I inequality violated for Small: %.1f blocks >= credits", blocksNeeded)
	}
}

func TestMultiConnectionEvenDistribution(t *testing.T) {
	// Sec. VI-C: "per-core results show an even workload distribution
	// between the cores" — with round-robin submission over 4 connections,
	// every DPU poller must see the same request count (within one batch),
	// and the aggregate metrics must match the single-connection run.
	opts := testOptions()
	opts.Requests = 4000
	opts.Connections = 4
	row, err := RunOffload(workload.ScenarioSmall, opts)
	if err != nil {
		t.Fatal(err)
	}
	single := testOptions()
	single.Requests = 4000
	base, err := RunOffload(workload.ScenarioSmall, single)
	if err != nil {
		t.Fatal(err)
	}
	// Same per-request work → similar modeled RPS (batching differs a bit:
	// each connection flushes its own partial blocks).
	if r := row.Result.RPS / base.Result.RPS; r < 0.7 || r > 1.3 {
		t.Errorf("multi-conn RPS ratio = %.2f", r)
	}
	if row.Result.Requests != 4000 {
		t.Errorf("requests = %d", row.Result.Requests)
	}
}

func TestRunFig8Deterministic(t *testing.T) {
	opts := testOptions()
	opts.Requests = 2000
	a, err := RunOffload(workload.ScenarioSmall, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOffload(workload.ScenarioSmall, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.RPS != b.Result.RPS || a.PCIeBytesPerReq != b.PCIeBytesPerReq {
		t.Error("identical runs produced different results")
	}
}
