package harness

import (
	"strconv"

	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/workload"
)

// SweepRow is one point of the block-size sweep (Sec. VI-A: "the optimal
// minimal block size for the highest throughput is around 8 KiB").
type SweepRow struct {
	BlockSize int
	RPS       float64
	// MsgsPerBlock is the achieved request batching.
	MsgsPerBlock float64
}

// DefaultBlockSizes is the sweep grid.
func DefaultBlockSizes() []int {
	return []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
}

// BlockSizeSweep runs the small-message offload scenario across block
// sizes.
func BlockSizeSweep(opts Options, sizes []int) ([]SweepRow, error) {
	var rows []SweepRow
	for _, size := range sizes {
		o := opts
		o.ClientCfg.BlockSize = size
		o.ServerCfg.BlockSize = size
		row, err := RunOffload(workload.ScenarioSmall, o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SweepRow{BlockSize: size, RPS: row.Result.RPS, MsgsPerBlock: row.ReqMsgsPerBlock})
	}
	return rows, nil
}

// PollModeRow compares busy polling against the blocking poll() path
// (Sec. III-C: busy polling is ~10% faster at 100% CPU utilization).
type PollModeRow struct {
	Mode string
	RPS  float64
	// HostCPUPercent / DPUCPUPercent are the effective utilizations: busy
	// polling pins its cores at 100% regardless of useful work.
	HostCPUPercent float64
	DPUCPUPercent  float64
}

// PollModes runs the small-message offload scenario in both polling modes.
func PollModes(opts Options) ([]PollModeRow, error) {
	var rows []PollModeRow
	for _, busy := range []bool{true, false} {
		o := opts
		o.BusyPoll = busy
		row, err := RunOffload(workload.ScenarioSmall, o)
		if err != nil {
			return nil, err
		}
		r := PollModeRow{RPS: row.Result.RPS}
		hostUtil := 100 * row.Result.HostCores / float64(machine.Host.Cores)
		dpuUtil := 100 * row.Result.DPUCores / float64(machine.DPU.Cores)
		if busy {
			// Busy polling spins whenever it is not working: the cores the
			// pollers own read as fully utilized.
			r.Mode = "busy-poll"
			r.HostCPUPercent = 100
			r.DPUCPUPercent = 100
		} else {
			r.Mode = "poll()"
			r.HostCPUPercent = hostUtil
			r.DPUCPUPercent = dpuUtil
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// TableIRow is one parameter row of Table I.
type TableIRow struct {
	Parameter string
	Client    string
	Server    string
}

// TableI returns the environment and configuration table.
func TableI(opts Options) []TableIRow {
	c := opts.ClientCfg.WithDefaults(true)
	s := opts.ServerCfg.WithDefaults(false)
	return []TableIRow{
		{"Hardware", "BlueField-3 (simulated)", "PowerEdge R760 (simulated)"},
		{"CPU model", machine.DPU.Name, machine.Host.Name},
		{"Threads", itoa(machine.DPU.Cores), itoa(machine.Host.Cores)},
		{"Credits", itoa(c.Credits), itoa(s.Credits)},
		{"Block Size", byteSize(c.BlockSize), byteSize(s.BlockSize)},
		{"Concurrency", itoa(rpcrdma.DefaultConcurrency), "n/a"},
		{"Buffer Sizes", byteSize(c.SBufSize), byteSize(s.SBufSize)},
		{"PCIe link", gbps(machine.LinkBandwidthGbps), gbps(machine.LinkBandwidthGbps)},
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

func byteSize(v int) string {
	switch {
	case v >= 1<<20 && v%(1<<20) == 0:
		return itoa(v>>20) + " MiB"
	case v >= 1<<10 && v%(1<<10) == 0:
		return itoa(v>>10) + " KiB"
	}
	return itoa(v) + " B"
}

func gbps(v float64) string {
	return itoa(int(v)) + " Gb/s"
}
