package trace

import (
	"fmt"
	"io"
	"math"

	"dpurpc/internal/metrics"
)

// Tail view: the bridge between windowed latency telemetry and span
// anatomy. A WindowedHistogram retains, per bucket, the trace ID of the
// worst recent sample; this file resolves those IDs against the tracer's
// completed-trace rings and renders each one as its stage-by-stage
// breakdown, so "p99 is 230µs right now" comes with the exact requests
// that put it there.

// TailEntry is one slow-request exemplar, resolved (when the trace is
// still in a ring) to its per-stage anatomy.
type TailEntry struct {
	ID       uint64      // trace ID (0 = request ran untraced)
	ValueUS  int64       // the exemplar's recorded latency, microseconds
	BoundUS  int64       // its histogram bucket bound (math.MaxInt64 = +Inf)
	Method   string      // resolved trace's method ("" if unresolved)
	Resolved bool        // trace found in the rings
	Err      bool        // resolved trace finished with an error
	Stages   []StageStat // single-trace breakdown (Count==1 rows + e2e)
}

// TailEntries resolves up to max window exemplars (worst first) against
// the tracer's retained traces. Exemplars whose trace has aged out of the
// rings — or that ran untraced (ID 0) — come back with Resolved=false but
// still carry the windowed latency.
func TailEntries(t *Tracer, snap metrics.WindowSnapshot, max int) []TailEntry {
	exs := snap.Exemplars(max)
	if len(exs) == 0 {
		return nil
	}
	byID := map[uint64]Trace{}
	for _, tr := range t.Snapshot() {
		byID[tr.ID] = tr
	}
	out := make([]TailEntry, 0, len(exs))
	for _, ex := range exs {
		e := TailEntry{ID: ex.ID, ValueUS: ex.V, BoundUS: ex.Bound}
		if tr, ok := byID[ex.ID]; ok && ex.ID != 0 {
			e.Resolved = true
			e.Method = tr.Method
			e.Err = tr.Err
			e.Stages = Breakdown([]Trace{tr})
		}
		out = append(out, e)
	}
	return out
}

// WriteTail renders the windowed summary plus the resolved exemplars as
// plain text (the /tail endpoint).
func WriteTail(w io.Writer, t *Tracer, win *metrics.RPCWindow, max int) {
	if win == nil {
		fmt.Fprintln(w, "no windowed telemetry configured")
		return
	}
	snap := win.LatencyUS.Snapshot()
	fmt.Fprintf(w, "windowed tail (trailing %v)\n", snap.Window)
	fmt.Fprintf(w, "requests: %d (%.1f req/s)  errors: %d (%.1f err/s)\n",
		win.Requests.Total(), win.Requests.Rate(),
		win.Errors.Total(), win.Errors.Rate())
	if snap.Count == 0 {
		fmt.Fprintln(w, "no samples in window")
		return
	}
	fmt.Fprintf(w, "latency_us: p50=%s p90=%s p99=%s (count %d)\n",
		fmtQuantile(snap.Quantile(0.50)), fmtQuantile(snap.Quantile(0.90)),
		fmtQuantile(snap.Quantile(0.99)), snap.Count)
	entries := TailEntries(t, snap, max)
	if len(entries) == 0 {
		fmt.Fprintln(w, "no exemplars retained")
		return
	}
	for i, e := range entries {
		bound := "+Inf"
		if e.BoundUS != math.MaxInt64 {
			bound = fmt.Sprintf("%d", e.BoundUS)
		}
		fmt.Fprintf(w, "\n#%d trace=%d latency=%dus bucket_le=%sus", i+1, e.ID, e.ValueUS, bound)
		switch {
		case e.ID == 0:
			fmt.Fprintf(w, " (untraced request)\n")
		case !e.Resolved:
			fmt.Fprintf(w, " (trace aged out of the rings)\n")
		default:
			status := "ok"
			if e.Err {
				status = "ERR"
			}
			fmt.Fprintf(w, " method=%s status=%s\n", e.Method, status)
			fmt.Fprintf(w, "  %-22s %10s\n", "stage", "dur_us")
			for _, s := range e.Stages {
				fmt.Fprintf(w, "  %-22s %10.1f\n", s.Stage, s.TotalUS)
			}
		}
	}
}

// fmtQuantile prints a bucket-bound quantile, tolerating the +Inf overflow
// bucket (NaN never reaches here: callers guard on Count==0).
func fmtQuantile(q float64) string {
	if math.IsInf(q, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%.0f", q)
}
