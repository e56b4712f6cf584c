// Package dpu models the testbed machine of Table I — a PowerEdge host with
// a BlueField-3 DPU — and performs the bottleneck analysis that converts
// the datapath's measured operation counts into the metrics of Fig. 8:
// requests per second, PCIe bandwidth, and host CPU usage.
//
// The analysis is a standard throughput model: the datapath's total work is
// charged to three resources (host cores, DPU cores, the PCIe link); the
// sustained duration of the run is set by the busiest resource; every other
// metric follows. The paper observes "an even workload distribution between
// the cores" (Sec. VI-C), which is what dividing aggregate core-time by the
// core count assumes.
package dpu

import (
	"dpurpc/internal/cpumodel"
	"dpurpc/internal/fabric"
)

// Machine is the simulated testbed.
type Machine struct {
	Host *cpumodel.Platform
	DPU  *cpumodel.Platform
	// LinkBandwidthGbps is the host<->DPU PCIe datapath capacity.
	LinkBandwidthGbps float64
}

// Default returns the Table I machine.
func Default() *Machine {
	return &Machine{
		Host:              cpumodel.HostX86(),
		DPU:               cpumodel.DPUBlueField3(),
		LinkBandwidthGbps: fabric.DefaultBandwidthGbps,
	}
}

// Usage is the total work of one benchmark run.
type Usage struct {
	Requests  uint64
	HostNS    float64 // aggregate host core-time
	DPUNS     float64 // aggregate DPU core-time
	LinkBytes uint64  // PCIe bytes (payload + framing overhead)
	// HostWorkers, when > 0, bounds how many host cores the deployment can
	// actually keep busy (total duplex response workers across
	// connections). 0 means the ideal even spread over every host core.
	HostWorkers int
}

// Result is one row of Fig. 8.
type Result struct {
	Requests uint64
	// SimSeconds is the modeled duration of the run.
	SimSeconds float64
	// RPS is requests per second (Fig. 8a).
	RPS float64
	// BandwidthGbps is the average PCIe utilization (Fig. 8b).
	BandwidthGbps float64
	// HostCores / DPUCores are the average busy-core counts (Fig. 8c).
	HostCores float64
	DPUCores  float64
	// Bottleneck names the saturated resource.
	Bottleneck string
}

// Analyze performs the bottleneck analysis.
func (m *Machine) Analyze(u Usage) Result {
	hostTime := u.HostNS / float64(m.Host.EffectiveCores(u.HostWorkers))
	dpuTime := u.DPUNS / float64(m.DPU.Cores)
	linkTime := float64(u.LinkBytes) * 8 / m.LinkBandwidthGbps // ns

	simNS := hostTime
	bottleneck := "host-cpu"
	if dpuTime > simNS {
		simNS = dpuTime
		bottleneck = "dpu-cpu"
	}
	if linkTime > simNS {
		simNS = linkTime
		bottleneck = "pcie"
	}
	if simNS <= 0 {
		return Result{Requests: u.Requests, Bottleneck: "idle"}
	}
	return Result{
		Requests:      u.Requests,
		SimSeconds:    simNS / 1e9,
		RPS:           float64(u.Requests) / simNS * 1e9,
		BandwidthGbps: float64(u.LinkBytes) * 8 / simNS,
		HostCores:     u.HostNS / simNS,
		DPUCores:      u.DPUNS / simNS,
		Bottleneck:    bottleneck,
	}
}
