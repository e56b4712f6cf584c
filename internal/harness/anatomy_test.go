package harness

import (
	"math"
	"testing"

	"dpurpc/internal/trace"
)

// TestAnatomyConsistency pins the experiment's core property: the per-stage
// partition sums exactly to the end-to-end latency (trace.Breakdown is an
// exact partition), every request is traced, and both modes surface the
// datapath stages the anatomy exists to show.
func TestAnatomyConsistency(t *testing.T) {
	opts := DefaultOptions()
	opts.Requests = 400
	opts.Concurrency = 64
	opts.ServerCfg.HostWorkers = 2
	rep, err := RunAnatomy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Modes) != 2 {
		t.Fatalf("want 2 modes, got %d", len(rep.Modes))
	}
	if rep.Modes[0].Mode != "serial" || rep.Modes[1].Mode != "pipelined" {
		t.Fatalf("mode order: %q, %q", rep.Modes[0].Mode, rep.Modes[1].Mode)
	}
	for _, m := range rep.Modes {
		if m.Traced != m.Requests {
			t.Errorf("%s: traced %d of %d requests (stats %+v)", m.Mode, m.Traced, m.Requests, m.TraceStats)
		}
		if m.TraceStats.DroppedActive != 0 || m.TraceStats.DroppedRing != 0 {
			t.Errorf("%s: tracer shed load: %+v", m.Mode, m.TraceStats)
		}
		if m.E2E.MeanUS <= 0 {
			t.Errorf("%s: e2e mean %v", m.Mode, m.E2E.MeanUS)
		}
		// The exact-partition property: stage sums equal e2e, not approximate.
		rel := math.Abs(m.StageSumMeanUS-m.E2E.MeanUS) / m.E2E.MeanUS
		if rel > 1e-9 {
			t.Errorf("%s: stage sum mean %.3fus != e2e mean %.3fus (rel %g)",
				m.Mode, m.StageSumMeanUS, m.E2E.MeanUS, rel)
		}
		var shares float64
		for _, s := range m.Stages {
			shares += s.Share
			if s.Count <= 0 {
				t.Errorf("%s: stage %s with count %d", m.Mode, s.Stage, s.Count)
			}
		}
		if math.Abs(shares-1) > 1e-6 {
			t.Errorf("%s: stage shares sum to %v, want 1", m.Mode, shares)
		}
		has := map[string]bool{}
		for _, s := range m.Stages {
			has[s.Stage] = true
		}
		// dpu.deliver itself is an instant marker (zero duration, so no
		// breakdown row); its wait gap is the delivery queueing time.
		for _, want := range []string{trace.StageMeasure, trace.StageDoorbell,
			trace.StageHostDispatch, trace.StageHostHandler, "wait:" + trace.StageDeliver} {
			if !has[want] {
				t.Errorf("%s: missing stage %s (have %v)", m.Mode, want, keys(has))
			}
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
