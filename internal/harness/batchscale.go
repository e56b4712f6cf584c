package harness

import (
	"fmt"

	"dpurpc/internal/dpu"
	"dpurpc/internal/workload"
)

// BatchScaleRow is one point of the commit-coalescing sweep: one scenario
// run with a given CommitBatch target. The interesting shape is the
// goodput-vs-batch-size curve for small messages — each extra message per
// doorbell shaves DoorbellNS/N off the per-message fixed cost — against the
// flat curve for large messages, whose blocks fill (and seal flushFull)
// before the batch target is ever reached.
type BatchScaleRow struct {
	Scenario workload.Scenario
	// CommitBatch is the coalescing target (1 = flush-every-pass baseline).
	CommitBatch int
	// Result is the machine-model projection.
	Result dpu.Result
	// MsgsPerBlock is the achieved request batching (messages per doorbell).
	MsgsPerBlock float64
	// DoorbellsPerReq is the total message-carrying blocks sealed (both
	// directions, all connections) per completed request.
	DoorbellsPerReq float64
	// Flush-reason breakdown, summed over both directions of every
	// connection: why each message-carrying block sealed.
	FlushFull     uint64
	FlushBatch    uint64
	FlushTimer    uint64
	FlushExplicit uint64
	// WallRPS is this machine's wall-clock rate (not a modeled number).
	WallRPS float64
}

// DefaultCommitBatches is the batch-size sweep grid.
func DefaultCommitBatches() []int { return []int{1, 2, 4, 8, 16, 32} }

// BatchScale sweeps CommitBatch across every workload scenario (message
// size is the second axis: Small is tens of bytes, Ints hundreds, Chars
// kilobytes). Each point runs the full offloaded deployment; the row
// reports modeled goodput alongside the achieved batching and the
// flush-reason counters that explain it.
func BatchScale(opts Options, batches []int) ([]BatchScaleRow, error) {
	rows := make([]BatchScaleRow, 0, len(batches)*len(workload.Scenarios()))
	for _, s := range workload.Scenarios() {
		for _, b := range batches {
			r, err := RunOffload(s, opts.withCommitBatch(b))
			if err != nil {
				return nil, fmt.Errorf("batchscale %v batch=%d: %w", s, b, err)
			}
			flushes := r.FlushFull + r.FlushBatch + r.FlushTimer + r.FlushExplicit
			rows = append(rows, BatchScaleRow{
				Scenario:        s,
				CommitBatch:     b,
				Result:          r.Result,
				MsgsPerBlock:    r.ReqMsgsPerBlock,
				DoorbellsPerReq: safeDiv(float64(flushes), float64(opts.Requests)),
				FlushFull:       r.FlushFull,
				FlushBatch:      r.FlushBatch,
				FlushTimer:      r.FlushTimer,
				FlushExplicit:   r.FlushExplicit,
				WallRPS:         r.WallRPS,
			})
		}
	}
	return rows, nil
}
