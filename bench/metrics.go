package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric of the ledger. BENCHMARK.json repeats these
// tables; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, all from the untraced run. Two of the
// issue's seven are not here. fail_frac is printed beside them but is 0 on
// every accepted run, and a gate that is a share of 0 cannot be met; the
// result's attempted/failed/correct fields carry it. lat_p99_us differed by
// 14 % and 21 % between calibration sets on ints_decode and blob_echo, and a
// timed metric that differs by more than 10 % is demoted, not given a wider
// bound: it is proc.lat_p99_us below.
var endToEnd = []metricDef{
	{"rps", "req/s", "higher", 0.20},
	{"rtt_p50_us", "us", "lower", 0.20},
	{"allocs_per_req", "allocs/req", "lower", 0.03},
	{"alloc_bytes_per_req", "B/req", "lower", 0.03},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the ungated rows, one group per package of this repository.
// Rows marked "counter" in README.md are read from the public stats of the
// untraced stack after Stack.Close; the rest are timed from outside through
// each layer's public functions.
var perLayer = []metricDef{
	{Name: "xrpc.echo_ns", Unit: "ns", Better: "lower"},
	{Name: "xrpc.echo_allocs", Unit: "allocs/req", Better: "lower"},
	{Name: "xrpc.pipelined_ns", Unit: "ns", Better: "lower"},
	{Name: "offload.step_ns", Unit: "ns", Better: "lower"},
	{Name: "offload.step_allocs", Unit: "allocs/req", Better: "lower"},
	{Name: "offload.step_d64_ns", Unit: "ns", Better: "lower"},
	{Name: "offload.self_ns", Unit: "ns", Better: "lower"},
	{Name: "offload.errors", Unit: "count", Better: "lower"},
	{Name: "offload.sheds", Unit: "count", Better: "lower"},
	{Name: "offload.reconnects", Unit: "count", Better: "lower"},
	{Name: "rpcrdma.echo_ns", Unit: "ns", Better: "lower"},
	{Name: "rpcrdma.blocks_per_req", Unit: "blocks/req", Better: "lower"},
	{Name: "rpcrdma.credit_stalls_per_kreq", Unit: "1/kreq", Better: "lower"},
	{Name: "rpcrdma.pipeline_stalls_per_kreq", Unit: "1/kreq", Better: "lower"},
	{Name: "rpcrdma.flush_timer_frac", Unit: "ratio", Better: "lower"},
	{Name: "rdma.write_imm_ns", Unit: "ns", Better: "lower"},
	{Name: "arena.alloc_free_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.link_bytes_per_req", Unit: "B/req", Better: "lower"},
	{Name: "deser.scan_ns", Unit: "ns", Better: "lower"},
	{Name: "deser.fill_ns", Unit: "ns", Better: "lower"},
	{Name: "deser.allocs", Unit: "allocs/req", Better: "lower"},
	{Name: "deser.varint_bytes_per_req", Unit: "B/req", Better: "lower"},
	{Name: "deser.copy_bytes_per_req", Unit: "B/req", Better: "lower"},
	{Name: "deser.ref_bytes_per_req", Unit: "B/req", Better: "higher"},
	{Name: "objconv.to_arena_ns", Unit: "ns", Better: "lower"},
	{Name: "protomsg.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "rpccache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "rpccache.get_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "rpccache.put_ns", Unit: "ns", Better: "lower"},
	{Name: "rpccache.hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace.enabled_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.bench_overhead_us", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_us_per_req", Unit: "us/req", Better: "lower"},
	{Name: "proc.cores_busy", Unit: "cores", Better: "lower"},
	{Name: "proc.gc_per_s", Unit: "1/s", Better: "lower"},
	{Name: "proc.rps_median", Unit: "req/s", Better: "higher"},
	{Name: "proc.lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "proc.lat_p99_median_us", Unit: "us", Better: "lower"},
	{Name: "proc.lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "proc.lat_max_us", Unit: "us", Better: "lower"},
	{Name: "residual.wakeup_us", Unit: "us", Better: "lower"},
}

// modelOnly are printed beside offload.step_ns in the budget table and kept
// out of the machine output: the cost model has scenarios for the Small
// workloads only, and the machine output must carry the same names on every
// workload.
var modelOnly = []metricDef{
	{Name: "cpumodel.host_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "cpumodel.dpu_ns_per_req", Unit: "ns", Better: "lower"},
}

// result is everything one workload produced in one run of the command.
type result struct {
	Workload  string
	Attempted uint64
	Failed    uint64
	// Values holds every metric measured, by name; Notes holds the sample
	// counts and other context printed beside them.
	Values map[string]float64
	Notes  []string
}

func newResult(workload string) *result {
	return &result{Workload: workload, Values: map[string]float64{}}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// correct reports whether every response of the run was the right one.
func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// writeJSON prints the one-line machine form: the metrics of defs only.
func (r *result) writeJSON(w io.Writer, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		v, ok := r.Values[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	return json.NewEncoder(w).Encode(out)
}

// writeTable prints every measured metric of defs by name with its unit.
func (r *result) writeTable(w io.Writer, title string, defs []metricDef) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, d := range defs {
		if v, ok := r.Values[d.Name]; ok {
			fmt.Fprintf(w, "    %-34s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics. vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }
