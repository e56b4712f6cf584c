package harness

import (
	"fmt"
	"testing"
)

// TestRunConnScale runs a small sweep end to end: every call resolves
// exactly once (enforced inside runConnScalePoint), churn-free legs see
// zero failures, and churn legs actually exercise the kill/redial cycle.
func TestRunConnScale(t *testing.T) {
	opts := DefaultOptions()
	opts.Requests = 1200
	rows, err := RunConnScale(opts, []int{4, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		t.Logf("conns=%d churn=%v: ok=%d failed=%d retries=%d kills=%d reconnects=%d dead=%d goodput=%.0f/s p99=%.0fus",
			r.Conns, r.Churn, r.Succeeded, r.Failed, r.Retries, r.Kills,
			r.Reconnects, r.DeadConns, r.GoodputRPS, r.P99US)
		if got := r.Succeeded + r.Failed; got != uint64(r.Requests) {
			t.Errorf("conns=%d churn=%v: resolved %d of %d", r.Conns, r.Churn, got, r.Requests)
		}
		if !r.Churn && r.Failed > 0 {
			t.Errorf("conns=%d: %d failures without churn", r.Conns, r.Failed)
		}
		if r.Churn && r.Kills == 0 {
			t.Errorf("conns=%d churn leg injected no kills", r.Conns)
		}
	}
}

// TestConnScaleChurnReconnects pins the transparent-reconnect behavior:
// a longer churn leg must adopt replacement connections (not just absorb
// kills as typed failures) and still resolve every call.
func TestConnScaleChurnReconnects(t *testing.T) {
	opts := DefaultOptions()
	opts.Requests = 4000
	row, err := runConnScalePoint(opts, connScalePoint{
		conns: 4, churn: true, driversPerConn: 2, maxAttempts: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ok=%d failed=%d kills=%d reconnects=%d dead=%d",
		row.Succeeded, row.Failed, row.Kills, row.Reconnects, row.DeadConns)
	if row.Kills == 0 {
		t.Fatal("no kills injected")
	}
	if row.Reconnects == 0 {
		t.Fatal("kills were injected but no connection reconnected")
	}
	if got := row.Succeeded + row.Failed; got != uint64(row.Requests) {
		t.Fatalf("resolved %d of %d calls", got, row.Requests)
	}
	// The overwhelming share of calls must succeed: a kill costs at most the
	// in-flight requests of one connection, and retries recover the rest.
	if row.Succeeded < uint64(row.Requests)*8/10 {
		t.Fatalf("only %d of %d calls succeeded under churn", row.Succeeded, row.Requests)
	}
}

// TestRunOverload pins the admission-control contract: with a tight DPU
// gate and a driver burst, overload surfaces as UNAVAILABLE sheds — counted
// on the shed counters and resolved immediately — never as requests
// queueing toward DEADLINE_EXCEEDED.
func TestRunOverload(t *testing.T) {
	opts := DefaultOptions()
	opts.Requests = 2000
	row, err := RunOverload(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ok=%d failed=%d dpuSheds=%d hostSheds=%d wall=%.2fs",
		row.Succeeded, row.Failed, row.DPUSheds, row.HostSheds, row.WallSeconds)
	if row.DPUSheds == 0 {
		t.Fatal("overload leg shed nothing")
	}
	if row.Failed == 0 {
		t.Fatal("overload leg reported no failed calls despite sheds")
	}
	// Sheds resolve instantly; if overload were degrading into deadline
	// waits instead, the wall time would be dominated by the 2s timeout.
	if row.WallSeconds > 30 {
		t.Fatalf("overload leg took %.1fs — sheds are not shedding", row.WallSeconds)
	}
}

// TestChaosChurn is the chaos-churn soak of `make chaos`: kills and
// injected faults (error CQEs, delays, drops) race the same reconnect
// machinery at 0-10% fault rates, under -race in the chaos target. Every
// call must still resolve exactly once, OK or typed.
func TestChaosChurn(t *testing.T) {
	opts := DefaultOptions()
	opts.Requests = 800
	for _, rate := range []float64{0, 0.01, 0.05, 0.10} {
		t.Run(fmt.Sprintf("rate=%g", rate), func(t *testing.T) {
			row, err := runConnScalePoint(opts, connScalePoint{
				conns: 4, churn: true, faultRate: rate,
				driversPerConn: 2, maxAttempts: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("ok=%d failed=%d kills=%d reconnects=%d dead=%d",
				row.Succeeded, row.Failed, row.Kills, row.Reconnects, row.DeadConns)
			if got := row.Succeeded + row.Failed; got != uint64(row.Requests) {
				t.Fatalf("resolved %d of %d calls", got, row.Requests)
			}
		})
	}
}

// BenchmarkConnScale runs one churn-free and one churn leg at a moderate
// connection count, reporting goodput and reconnect counts as benchmark
// metrics: go test -bench ConnScale -benchmem -run '^$' ./internal/harness.
func BenchmarkConnScale(b *testing.B) {
	for _, churn := range []bool{false, true} {
		name := "churn=off"
		if churn {
			name = "churn=on"
		}
		b.Run(name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.Requests = 2000
			var goodput, reconnects, sheds float64
			for i := 0; i < b.N; i++ {
				row, err := runConnScalePoint(opts, connScalePoint{
					conns: 32, churn: churn, driversPerConn: 1, maxAttempts: 8,
				})
				if err != nil {
					b.Fatal(err)
				}
				goodput += row.GoodputRPS
				reconnects += float64(row.Reconnects)
				sheds += float64(row.DPUSheds + row.HostSheds)
			}
			b.ReportMetric(goodput/float64(b.N), "goodput/s")
			b.ReportMetric(reconnects/float64(b.N), "reconnects")
			b.ReportMetric(sheds/float64(b.N), "sheds")
		})
	}
}
