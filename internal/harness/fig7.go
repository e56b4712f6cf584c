package harness

import (
	"fmt"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/arena"
	"dpurpc/internal/deser"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/workload"
)

// Fig7Kind selects the message family of Fig. 7.
type Fig7Kind string

// The two Fig. 7 series.
const (
	Fig7Ints  Fig7Kind = "int array"
	Fig7Chars Fig7Kind = "char array"
)

// Fig7Row is one point of Fig. 7: the time to deserialize a single message
// of Count elements on one core of each platform.
type Fig7Row struct {
	Kind  Fig7Kind
	Count int
	// CPUNS / DPUNS are the modeled single-core deserialization times.
	CPUNS float64
	DPUNS float64
	// Ratio is DPUNS/CPUNS (paper: 1.89x ints, 2.51x chars asymptotically).
	Ratio float64
	// WallNS is the measured wall-clock time per deserialization of the
	// real implementation on this machine (for reference; absolute values
	// are machine-dependent).
	WallNS float64
	// WireBytes is the serialized message size.
	WireBytes int
}

// DefaultFig7Counts is the element-count sweep of Fig. 7.
func DefaultFig7Counts() []int {
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
}

// Fig7 reproduces Fig. 7: for each element count it generates the message,
// runs the planned arena deserializer the datapath runs (Scan + Fill) to
// collect operation counts, models the single-core per-platform times, and
// (when wallIters > 0) also measures its wall-clock time on this machine.
func Fig7(opts Options, counts []int, wallIters int) ([]Fig7Row, error) {
	env := workload.NewEnv()
	var rows []Fig7Row
	for _, kind := range []Fig7Kind{Fig7Ints, Fig7Chars} {
		for _, n := range counts {
			rng := mt19937.New(opts.Seed)
			var data []byte
			var lay = env.IntsLay
			if kind == Fig7Ints {
				data = env.GenInts(rng, n).Marshal(nil)
			} else {
				lay = env.CharsLay
				data = env.GenChars(rng, n).Marshal(nil)
			}
			need, err := deser.MeasureExact(lay, data)
			if err != nil {
				return nil, err
			}
			bump := arena.NewBump(make([]byte, need+deser.GuardBytes))
			plan := deser.PlanFor(lay)
			d := deser.New(deser.Options{ValidateUTF8: true})
			if _, err := d.DeserializePlanned(plan, data, bump, 0); err != nil {
				return nil, err
			}
			stats, err := decodeStats(d.Stats, lay, data, need)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s/%d: %w", kind, n, err)
			}

			row := Fig7Row{
				Kind:      kind,
				Count:     n,
				CPUNS:     opts.Machine.Host.DeserNS(stats),
				DPUNS:     opts.Machine.DPU.DeserNS(stats),
				WireBytes: len(data),
			}
			row.Ratio = row.DPUNS / row.CPUNS
			if wallIters > 0 {
				start := time.Now()
				for i := 0; i < wallIters; i++ {
					bump.Reset()
					if _, err := d.DeserializePlanned(plan, data, bump, 0); err != nil {
						return nil, err
					}
				}
				row.WallNS = float64(time.Since(start).Nanoseconds()) / float64(wallIters)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// decodeStats returns the paper's cost-model inputs from a planned decode's
// stats — the replay-side counters (ScannedBytes, ReplayedBytes) that only
// the planned path charges are dropped — after checking they equal what the
// interpretive deserializer charges for the same message (need bytes, as
// MeasureExact reports).
func decodeStats(planned deser.Stats, lay *abi.Layout, data []byte, need int) (deser.Stats, error) {
	planned.ScannedBytes, planned.ReplayedBytes = 0, 0
	d := deser.New(deser.Options{ValidateUTF8: true})
	if _, err := d.Deserialize(lay, data, arena.NewBump(make([]byte, need+deser.GuardBytes)), 0); err != nil {
		return deser.Stats{}, err
	}
	if planned != d.Stats {
		return deser.Stats{}, fmt.Errorf("planned stats %+v != interpretive %+v", planned, d.Stats)
	}
	return planned, nil
}
