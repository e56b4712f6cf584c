package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"dpurpc/internal/mt19937"
)

// smokeConfig runs every phase for a fraction of a second.
func smokeConfig() config {
	return config{
		seed: mt19937.DefaultSeed, rounds: 1, windows: 1,
		windowDur: 200 * time.Millisecond, warmDur: 100 * time.Millisecond, unloadedDur: 200 * time.Millisecond,
		setupCycles: 2, setupWarm: 1,
		traceDur: 100 * time.Millisecond, layerDur: 20 * time.Millisecond,
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricTables(t *testing.T) {
	if len(workloads) != 4 {
		t.Errorf("%d workloads, want 4", len(workloads))
	}
	if len(endToEnd) != 5 {
		t.Errorf("%d end-to-end metrics, want 5 (the issue's seven less fail_frac and the demoted lat_p99_us)", len(endToEnd))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want at most 128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer, modelOnly} {
		for _, d := range defs {
			if seen[d.Name] {
				t.Errorf("metric %s is defined twice", d.Name)
			}
			seen[d.Name] = true
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
			}
			if d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || w.Conns > 2 {
			t.Errorf("workload %q: bad name, or more connections than the 2 processors calibration assumed", w.Name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables here in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %q paths %q", file.Command, file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the command's default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %s / %s", i, file.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n here %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n here %+v", file.PerLayer, perLayer)
	}
}

// TestSmoke runs every workload through the gated run and the traced run at
// a fraction of a second each: zero failures, every metric present, machine
// output well formed, spans linked, and each budget table summing to its
// round trip.
func TestSmoke(t *testing.T) {
	cfg := smokeConfig()
	results, err := runSet(workloads, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, results, endToEnd)

	rec := newRecorder()
	var log bytes.Buffer
	results, err = runTraced(workloads, cfg, rec, &log)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, results, perLayer)
	for i, r := range results {
		_, modeled := r.Values["cpumodel.host_ns_per_req"]
		if want := workloads[i].Scenario != nil; modeled != want {
			t.Errorf("%s: cost-model row present = %v, want %v", r.Workload, modeled, want)
		}
		sum := 0.0
		for _, row := range budgetRows(r.Values) {
			sum += row.ns
		}
		if rtt := r.Values["rtt_p50_us"] * 1e3; math.Abs(sum-rtt) > 1e-6*rtt {
			t.Errorf("%s: budget rows sum to %.3f ns, rtt_p50_us is %.3f ns", r.Workload, sum, rtt)
		}
	}
	if !bytes.Contains(log.Bytes(), []byte("residual.wakeup")) {
		t.Error("budget table does not name residual.wakeup")
	}
	checkSpans(t, rec)
}

func checkResults(t *testing.T, results []*result, defs []metricDef) {
	t.Helper()
	if len(results) != len(workloads) {
		t.Fatalf("%d results, want %d", len(results), len(workloads))
	}
	for _, r := range results {
		if !r.correct() {
			t.Errorf("%s: %d of %d requests failed", r.Workload, r.Failed, r.Attempted)
		}
		var line bytes.Buffer
		if err := r.writeJSON(&line, defs); err != nil {
			t.Errorf("%s: %v", r.Workload, err)
			continue
		}
		var out struct {
			Correct   bool
			Attempted uint64
			Failed    uint64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line.Bytes(), &out); err != nil {
			t.Errorf("%s: machine output: %v", r.Workload, err)
			continue
		}
		if !out.Correct || out.Attempted == 0 || len(out.Metrics) != len(defs) {
			t.Errorf("%s: machine output %s", r.Workload, line.String())
		}
		for _, d := range defs {
			m, ok := out.Metrics[d.Name]
			if !ok || m.Value == nil || m.Unit != d.Unit || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
				t.Errorf("%s: metric %s missing or malformed in %s", r.Workload, d.Name, line.String())
			}
		}
	}
}

// checkSpans loads the Chrome trace JSON back and follows every parent link.
func checkSpans(t *testing.T, rec *recorder) {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Pid  int
			Args struct{ Req, Span, Parent int }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace JSON does not load: %v", err)
	}
	byID := map[int]int{} // span -> request
	names := map[string]int{}
	for _, e := range file.TraceEvents {
		if e.Ph == "X" {
			byID[e.Args.Span] = e.Args.Req
			names[e.Name]++
		}
	}
	for _, e := range file.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Args.Req == 0 {
			t.Fatalf("span %s has no request id", e.Name)
		}
		if e.Name == "stack.call" != (e.Args.Parent == 0) {
			t.Fatalf("span %s has parent %d", e.Name, e.Args.Parent)
		}
		if e.Args.Parent != 0 && byID[e.Args.Parent] != e.Args.Req {
			t.Fatalf("span %s of request %d names a parent of request %d", e.Name, e.Args.Req, byID[e.Args.Parent])
		}
	}
	for _, name := range []string{"stack.call", "xrpc.echo", "offload.step", "deser.scan", "deser.fill",
		"rpcrdma.echo", "objconv.to_arena", "protomsg.marshal"} {
		if names[name] == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
}
