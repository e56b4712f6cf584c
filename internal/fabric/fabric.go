// Package fabric models the host<->DPU DMA path: the PCIe link the RDMA
// driver ultimately uses (Sec. II-C: "in practice, the driver will leverage
// the host's DMA hardware").
//
// The link does not delay data in real time — transfers complete
// immediately so tests and benchmarks run fast — but every byte is
// accounted per direction, and the bandwidth model converts byte totals
// into the transfer time used by the bottleneck analysis that produces the
// paper's Fig. 8b bandwidth and the PCIe-bound crossover for the x8000
// Chars workload.
package fabric

import "sync/atomic"

// Direction labels one side of the link.
type Direction int

// The two directions of the host<->DPU link.
const (
	DPUToHost Direction = iota
	HostToDPU
)

func (d Direction) String() string {
	if d == DPUToHost {
		return "dpu->host"
	}
	return "host->dpu"
}

// DefaultBandwidthGbps is the modeled host<->DPU path capacity. BlueField-3
// exposes a PCIe Gen5 x16 host interface, but the effective RDMA datapath
// ceiling the paper observes is ~180-200 Gb/s (Fig. 8b tops out at 180);
// 200 Gb/s reproduces that crossover.
const DefaultBandwidthGbps = 200.0

// DefaultMsgOverheadBytes approximates per-operation PCIe/RDMA framing
// (TLP headers, CQE DMA) added to each RDMA operation.
const DefaultMsgOverheadBytes = 26

// DirStats are per-direction counters.
type DirStats struct {
	Bytes     uint64 // payload bytes transferred
	Overhead  uint64 // modeled framing bytes
	Transfers uint64 // RDMA operations
}

// TotalBytes returns payload+overhead bytes.
func (s DirStats) TotalBytes() uint64 { return s.Bytes + s.Overhead }

// Link is a bidirectional host<->DPU path. Counters are updated with
// atomics so concurrent pollers on both sides can record without
// contention.
type Link struct {
	BandwidthGbps    float64
	MsgOverheadBytes int

	stats [2]struct {
		bytes     atomic.Uint64
		overhead  atomic.Uint64
		transfers atomic.Uint64
	}
}

// NewLink returns a link with the default bandwidth/overhead model.
func NewLink() *Link {
	return &Link{BandwidthGbps: DefaultBandwidthGbps, MsgOverheadBytes: DefaultMsgOverheadBytes}
}

// Record accounts one RDMA operation of n payload bytes in direction dir.
func (l *Link) Record(dir Direction, n int) {
	s := &l.stats[dir]
	s.bytes.Add(uint64(n))
	s.overhead.Add(uint64(l.MsgOverheadBytes))
	s.transfers.Add(1)
}

// Stats returns the cumulative counters for a direction.
func (l *Link) Stats(dir Direction) DirStats {
	s := &l.stats[dir]
	return DirStats{
		Bytes:     s.bytes.Load(),
		Overhead:  s.overhead.Load(),
		Transfers: s.transfers.Load(),
	}
}

// TotalBytes returns payload+overhead bytes across both directions.
func (l *Link) TotalBytes() uint64 {
	return l.Stats(DPUToHost).TotalBytes() + l.Stats(HostToDPU).TotalBytes()
}

// TransferNS returns the modeled wall-clock time to move n bytes over the
// link at the configured bandwidth.
func (l *Link) TransferNS(n uint64) float64 {
	return float64(n) * 8 / l.BandwidthGbps
}
