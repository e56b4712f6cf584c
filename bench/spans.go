package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. Spans of one request share Req; Parent is the span
// that caused this one (0 for the root).
type span struct {
	Name       string
	Workload   int // index into the recorder's workload names
	Req        uint64
	ID, Parent int
	// Depth counts the span's ancestors. Replayed children start after their
	// parent has ended, so each depth gets its own thread lane in the viewer.
	Depth      int
	Start, End time.Duration // since the recorder's base
}

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine (the traced pass makes depth-1 calls).
type recorder struct {
	base      time.Time
	workloads []string
	spans     []span
	nextReq   uint64
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// beginWorkload opens a process lane for name; later spans belong to it.
func (r *recorder) beginWorkload(name string) { r.workloads = append(r.workloads, name) }

func (r *recorder) newRequest() uint64 {
	r.nextReq++
	return r.nextReq
}

// add records one span and returns its ID for children to name as parent.
func (r *recorder) add(name string, req uint64, parent int, start, end time.Time) int {
	id := len(r.spans) + 1
	depth := 0
	if parent != 0 {
		depth = r.spans[parent-1].Depth + 1
	}
	r.spans = append(r.spans, span{
		Name: name, Workload: len(r.workloads) - 1, Req: req, ID: id, Parent: parent, Depth: depth,
		Start: start.Sub(r.base), End: end.Sub(r.base),
	})
	return id
}

// p50ns returns the median duration of the current workload's spans called
// name, and how many there were.
func (r *recorder) p50ns(name string) (float64, int) {
	var ds []float64
	for _, s := range r.spans {
		if s.Name == name && s.Workload == len(r.workloads)-1 {
			ds = append(ds, float64(s.End-s.Start))
		}
	}
	return median(ds), len(ds)
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// Perfetto or chrome://tracing): one process per workload, one complete
// event per span, request id and parent link in args.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(r.spans)+len(r.workloads))
	for i, name := range r.workloads {
		events = append(events, event{Name: "process_name", Ph: "M", Pid: i + 1,
			Args: map[string]any{"name": name}})
	}
	for _, s := range r.spans {
		events = append(events, event{
			Name: s.Name, Cat: r.workloads[s.Workload], Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: s.Workload + 1, Tid: s.Depth + 1,
			Args: map[string]any{"req": s.Req, "span": s.ID, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ns"})
}

// budgetRow is one term of the unloaded round trip.
type budgetRow struct {
	name  string
	ns    float64 // its value in ns
	span  string  // the replay span that wraps the same call, if any
	micro string  // the checked-in microbenchmark it corresponds to
}

// budgetRows returns the terms whose sum is rtt_p50_us:
//
//	rtt_p50_us = xrpc.echo + deser.scan + deser.fill + rpcrdma.echo
//	           + offload.self + residual.wakeup
//
// offload.self is offload.step minus its three children, and
// residual.wakeup is what is left of the round trip after xrpc.echo and
// offload.step, so the sum holds by construction.
func budgetRows(v map[string]float64) []budgetRow {
	return []budgetRow{
		{"xrpc.echo", v["xrpc.echo_ns"], "xrpc.echo", "(none: ROADMAP item 2 asks for one)"},
		{"deser.scan", v["deser.scan_ns"], "deser.scan", "BENCH_deser.json Planned*"},
		{"deser.fill", v["deser.fill_ns"], "deser.fill", "BENCH_deser.json Planned*, BENCH_payload.json"},
		{"rpcrdma.echo", v["rpcrdma.echo_ns"], "rpcrdma.echo", "BENCH_batch.json EchoBatch/commit=1"},
		{"offload.self", v["offload.self_ns"], "", "(none)"},
		{"residual.wakeup", v["residual.wakeup_us"] * 1e3, "", "(named residual: poller sleeps, goroutine hand-offs)"},
	}
}

// writeBudget prints the budget table of one workload: each term with its
// value, its share of the round trip, the median of the replay spans that
// wrap the same call one request at a time (cold, clock overhead included),
// and the microbenchmark snapshot it corresponds to.
func writeBudget(w io.Writer, r *result, rec *recorder) {
	v := r.Values
	rtt := v["rtt_p50_us"] * 1e3
	fmt.Fprintf(w, "  budget: rtt_p50_us %.1f us = sum of\n", v["rtt_p50_us"])
	fmt.Fprintf(w, "    %-16s %12s %7s %14s  %s\n", "term", "ns", "share", "replay-span-ns", "microbenchmark")
	sum := 0.0
	for _, row := range budgetRows(v) {
		spanCol := "-"
		if row.span != "" {
			if p50, n := rec.p50ns(row.span); n > 0 {
				spanCol = fmt.Sprintf("%.0f", p50)
			}
		}
		fmt.Fprintf(w, "    %-16s %12.0f %6.1f%% %14s  %s\n", row.name, row.ns, 100*row.ns/rtt, spanCol, row.micro)
		sum += row.ns
	}
	fmt.Fprintf(w, "    %-16s %12.0f %6.1f%%\n", "sum", sum, 100*sum/rtt)
	if host, ok := v["cpumodel.host_ns_per_req"]; ok {
		step := v["offload.step_ns"]
		model := host + v["cpumodel.dpu_ns_per_req"]
		verdict := "within 2x"
		if model > 2*step || step > 2*model {
			verdict = "FINDING: model and wall disagree by more than 2x"
		}
		fmt.Fprintf(w, "    cpumodel: host %.0f ns + dpu %.0f ns = %.0f ns/req against offload.step_ns %.0f (%s)\n",
			host, v["cpumodel.dpu_ns_per_req"], model, step, verdict)
	} else {
		fmt.Fprintf(w, "    cpumodel: no scenario carries this workload's message\n")
	}
}
