package harness

import (
	"math"
	"testing"
)

// TestRunTailscaleLinksExemplarsToAnatomy pins the experiment's contract:
// the trailing window covers the run, the reported quantiles are finite and
// ordered, and every retained exemplar resolves through its trace ID to a
// stage-by-stage anatomy whose rows sum to the end-to-end row.
func TestRunTailscaleLinksExemplarsToAnatomy(t *testing.T) {
	opts := DefaultOptions()
	opts.Requests = 400
	opts.Concurrency = 64
	opts.ServerCfg.HostWorkers = 2
	rep, err := RunTailscale(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowCount == 0 {
		t.Fatal("window saw no requests")
	}
	if rep.RPS <= 0 {
		t.Errorf("window RPS = %v", rep.RPS)
	}
	if rep.P50US <= 0 || rep.P99US < rep.P90US || rep.P90US < rep.P50US {
		t.Errorf("quantiles disordered: p50=%v p90=%v p99=%v", rep.P50US, rep.P90US, rep.P99US)
	}
	for _, q := range []float64{rep.P50US, rep.P90US, rep.P99US} {
		if math.IsInf(q, 0) || math.IsNaN(q) {
			t.Errorf("non-finite quantile %v", q)
		}
	}
	if len(rep.Exemplars) == 0 {
		t.Fatal("no exemplars retained")
	}
	if rep.ResolvedExemplars != len(rep.Exemplars) {
		t.Fatalf("only %d of %d exemplars resolved (ring sized for the whole run)",
			rep.ResolvedExemplars, len(rep.Exemplars))
	}
	// Worst first.
	for i := 1; i < len(rep.Exemplars); i++ {
		if rep.Exemplars[i].LatencyUS > rep.Exemplars[i-1].LatencyUS {
			t.Errorf("exemplars not worst-first at %d: %d > %d",
				i, rep.Exemplars[i].LatencyUS, rep.Exemplars[i-1].LatencyUS)
		}
	}
	for _, ex := range rep.Exemplars {
		if ex.TraceID == 0 {
			t.Error("resolved exemplar with trace ID 0")
		}
		if len(ex.Stages) == 0 {
			t.Errorf("exemplar %d resolved but has no stage rows", ex.TraceID)
		}
		var e2e, sum float64
		for _, s := range ex.Stages {
			if s.Stage == "e2e" {
				e2e = s.MeanUS
			} else {
				sum += s.MeanUS
			}
		}
		if e2e <= 0 {
			t.Errorf("exemplar %d: no e2e row", ex.TraceID)
			continue
		}
		// Single-trace breakdown: stage rows partition the e2e exactly.
		if rel := math.Abs(sum-e2e) / e2e; rel > 1e-9 {
			t.Errorf("exemplar %d: stages sum %.3fus != e2e %.3fus", ex.TraceID, sum, e2e)
		}
	}
}
