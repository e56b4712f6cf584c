package harness

import (
	"fmt"
	"time"

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

// Fig7 reproduces Fig. 7: for each element count (workload.Fig7Counts is
// the paper's sweep) it generates the message, decodes it with the
// datapath's decoder (Scan + Fill) to collect operation counts,
// models the single-core per-platform times, and (when wallIters > 0) also
// measures its wall-clock time on this machine. The model charges the
// paper's one-pass deserializer, so the scan/replay split counters
// (ScannedBytes, ReplayedBytes) are zeroed before it is applied.
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
			plan := deser.PlanFor(lay)
			d := deser.New(deser.Options{ValidateUTF8: true})
			var bump arena.Bump
			decode := func() error {
				no, err := d.Scan(plan, data)
				if err != nil {
					return fmt.Errorf("fig7 %s/%d: %w", kind, n, err)
				}
				defer no.Release()
				if bump.Cap() < no.Need()+deser.GuardBytes {
					bump.Rebind(make([]byte, no.Need()+deser.GuardBytes))
				}
				bump.Reset()
				_, err = d.Fill(plan, data, no, &bump, 0)
				return err
			}
			if err := decode(); err != nil {
				return nil, err
			}
			stats := d.Stats
			stats.ScannedBytes, stats.ReplayedBytes = 0, 0

			row := Fig7Row{
				Kind:      kind,
				Count:     n,
				CPUNS:     machine.Host.DeserNS(stats),
				DPUNS:     machine.DPU.DeserNS(stats),
				WireBytes: len(data),
			}
			row.Ratio = row.DPUNS / row.CPUNS
			if wallIters > 0 {
				start := time.Now()
				for i := 0; i < wallIters; i++ {
					if err := decode(); err != nil {
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
