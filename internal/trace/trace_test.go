package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"dpurpc/internal/metrics"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Enable()
	tr.Disable()
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	a := tr.Begin("m")
	if a != nil {
		t.Fatal("nil tracer handed out a handle")
	}
	if a.ID() != 0 {
		t.Fatal("nil Active ID != 0")
	}
	a.Span(StageMeasure, ProcDPU, 0, 1, 2) // must not panic
	tr.Finish(a, false)
	if got := tr.Lookup(7); got != nil {
		t.Fatal("nil tracer Lookup != nil")
	}
	if s := tr.Stats(); s != (Stats{}) {
		t.Fatalf("nil tracer stats %+v", s)
	}
	if tr.Snapshot() != nil || tr.Drain() != nil {
		t.Fatal("nil tracer returned traces")
	}
}

func TestDisabledBeginReturnsNil(t *testing.T) {
	tr := New(Config{})
	if tr.Begin("m") != nil {
		t.Fatal("disabled tracer handed out a handle")
	}
	tr.Enable()
	a := tr.Begin("m")
	if a == nil {
		t.Fatal("enabled tracer refused a handle")
	}
	if got := tr.Lookup(a.ID()); got != a {
		t.Fatal("Lookup did not resolve the in-flight handle")
	}
	tr.Finish(a, false)
	if got := tr.Lookup(a.ID()); got != nil {
		t.Fatal("Lookup resolved a finished trace")
	}
}

func TestActiveCapDrops(t *testing.T) {
	tr := New(Config{MaxActive: 2})
	tr.Enable()
	a1, a2 := tr.Begin("m"), tr.Begin("m")
	if a1 == nil || a2 == nil {
		t.Fatal("under-cap Begin refused")
	}
	if tr.Begin("m") != nil {
		t.Fatal("over-cap Begin succeeded")
	}
	st := tr.Stats()
	if st.DroppedActive != 1 || st.Started != 2 {
		t.Fatalf("stats %+v", st)
	}
	tr.Finish(a1, false)
	if tr.Begin("m") == nil {
		t.Fatal("Begin refused after a slot freed")
	}
	_ = a2
}

func TestRingWrapDrops(t *testing.T) {
	// RingSize 16 = one slot per shard; finishing two traces landing in the
	// same shard must overwrite the older one and count the drop.
	tr := New(Config{RingSize: 16})
	tr.Enable()
	const n = 64
	for i := 0; i < n; i++ {
		tr.Finish(tr.Begin("m"), false)
	}
	st := tr.Stats()
	if st.Finished != n {
		t.Fatalf("finished %d, want %d", st.Finished, n)
	}
	if st.DroppedRing != n-16 {
		t.Fatalf("dropped %d, want %d", st.DroppedRing, n-16)
	}
	if got := len(tr.Snapshot()); got != 16 {
		t.Fatalf("retained %d traces, want 16", got)
	}
}

func TestDrainClearsRings(t *testing.T) {
	tr := New(Config{})
	tr.Enable()
	for i := 0; i < 10; i++ {
		tr.Finish(tr.Begin("m"), false)
	}
	if got := len(tr.Drain()); got != 10 {
		t.Fatalf("drained %d, want 10", got)
	}
	if got := len(tr.Snapshot()); got != 0 {
		t.Fatalf("snapshot after drain has %d traces", got)
	}
}

func TestConcurrentTracing(t *testing.T) {
	tr := New(Config{RingSize: 1 << 14, MaxActive: 1 << 14})
	tr.Enable()
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a := tr.Begin("m")
				t0 := Now()
				a.Span(StageMeasure, ProcDPU, 1, t0, t0+10)
				a.Span(StageHostHandler, ProcHost, 2, t0+20, t0+30)
				tr.Finish(a, false)
			}
		}()
	}
	wg.Wait()
	st := tr.Stats()
	if st.Started != workers*per || st.Finished != workers*per {
		t.Fatalf("stats %+v", st)
	}
	traces := tr.Snapshot()
	if len(traces) != workers*per {
		t.Fatalf("retained %d, want %d", len(traces), workers*per)
	}
	seen := map[uint64]bool{}
	for _, x := range traces {
		if seen[x.ID] {
			t.Fatalf("duplicate trace ID %d", x.ID)
		}
		seen[x.ID] = true
		if len(x.Spans) != 2 {
			t.Fatalf("trace %d has %d spans", x.ID, len(x.Spans))
		}
	}
}

// mkTrace builds a trace with explicit span layout for breakdown tests.
func mkTrace(id uint64, start, end int64, spans ...Span) Trace {
	return Trace{ID: id, Method: "m", Start: start, End: end, Spans: spans}
}

func TestBreakdownExactPartition(t *testing.T) {
	// Gaps, overlap, and a span reaching past End — the partition must
	// still sum exactly to End-Start.
	traces := []Trace{
		mkTrace(1, 0, 1000,
			Span{Stage: StageMeasure, Start: 100, End: 300},
			Span{Stage: StageBuild, Start: 250, End: 500},   // overlaps measure
			Span{Stage: StageDeliver, Start: 900, End: 900}, // instant
		),
		mkTrace(2, 0, 2000,
			Span{Stage: StageMeasure, Start: 0, End: 800},
			Span{Stage: StageBuild, Start: 1500, End: 2500}, // past End, clamped
		),
	}
	rows := Breakdown(traces)
	if len(rows) == 0 || rows[len(rows)-1].Stage != "e2e" {
		t.Fatalf("missing e2e row: %+v", rows)
	}
	var stageTotal, e2eTotal float64
	for _, r := range rows {
		if r.Stage == "e2e" {
			e2eTotal = r.TotalUS
		} else {
			stageTotal += r.TotalUS
		}
	}
	wantUS := float64(1000+2000) / 1e3
	if math.Abs(e2eTotal-wantUS) > 1e-9 {
		t.Fatalf("e2e total %v, want %v", e2eTotal, wantUS)
	}
	if math.Abs(stageTotal-e2eTotal) > 1e-9 {
		t.Fatalf("stage totals %v != e2e total %v", stageTotal, e2eTotal)
	}
	byStage := map[string]StageStat{}
	for _, r := range rows {
		byStage[r.Stage] = r
	}
	// Trace 1: wait:measure 0.1us, measure 0.2us, build (clamped to start at
	// 300) 0.2us, wait:deliver tail 0.5us (0.4 gap + 0.1 tail).
	// Trace 2: measure 0.8us, wait:build 0.7us, build 0.5us (clamped at End).
	if got := byStage[StageMeasure].TotalUS; math.Abs(got-1.0) > 1e-9 {
		t.Errorf("measure total %v, want 1.0", got)
	}
	if got := byStage[StageBuild].TotalUS; math.Abs(got-0.7) > 1e-9 {
		t.Errorf("build total %v, want 0.7", got)
	}
	if _, ok := byStage[StageDeliver]; ok {
		t.Error("zero-duration deliver span produced a row")
	}
	if byStage["wait:"+StageMeasure].Count != 1 {
		t.Errorf("wait:measure rows: %+v", byStage["wait:"+StageMeasure])
	}
}

func TestBreakdownEmpty(t *testing.T) {
	if rows := Breakdown(nil); len(rows) != 0 {
		t.Fatalf("breakdown of nothing: %+v", rows)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	traces := []Trace{
		mkTrace(1, 1000, 3000,
			Span{Stage: StageMeasure, Proc: ProcDPU, TID: 1, Start: 1000, End: 1500},
			Span{Stage: StageHostHandler, Proc: ProcHost, TID: 0, Start: 2000, End: 2500},
		),
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, traces); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	var xEvents, mEvents int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			xEvents++
			if e.Dur <= 0 || e.Ts < 0 {
				t.Errorf("bad X event: %+v", e)
			}
			if e.Pid != ProcDPU && e.Pid != ProcHost {
				t.Errorf("bad pid: %+v", e)
			}
		case "M":
			mEvents++
		default:
			t.Errorf("unknown phase %q", e.Ph)
		}
	}
	if xEvents != 2 {
		t.Fatalf("want 2 span events, got %d", xEvents)
	}
	if mEvents == 0 {
		t.Fatal("no metadata events")
	}
}

func TestDebugMux(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("rpc_requests_total", "test", map[string]string{"method": "/a/b"}).Add(3)
	tr := New(Config{})
	tr.Enable()
	a := tr.Begin("/a/b")
	t0 := Now()
	a.Span(StageMeasure, ProcDPU, 1, t0, t0+1000)
	tr.Finish(a, false)

	srv, err := ListenDebug("127.0.0.1:0", NewDebugMux(DebugOptions{Registry: reg, Tracer: tr}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return b.String(), resp.Header.Get("Content-Type")
	}
	body, _ := get("/healthz")
	if !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %q", body)
	}
	body, ctype := get("/metrics")
	if !strings.Contains(body, `rpc_requests_total{method="/a/b"} 3`) {
		t.Fatalf("metrics body: %q", body)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("metrics content type: %q", ctype)
	}
	body, _ = get("/trace")
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("/trace missing traceEvents")
	}
	body, _ = get("/anatomy")
	if !strings.Contains(body, StageMeasure) {
		t.Fatalf("/anatomy missing stage rows: %q", body)
	}
}

// BenchmarkTraceOverhead compares the datapath cost of span recording
// disabled (nil handle — the common case) vs enabled.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "disabled"
		if enabled {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			tr := New(Config{RingSize: 1 << 12})
			if enabled {
				tr.Enable()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := tr.Begin("m")
				if a != nil {
					t0 := Now()
					a.Span(StageMeasure, ProcDPU, 1, t0, Now())
					a.Span(StageBuild, ProcDPU, 1, Now(), Now())
				}
				tr.Finish(a, false)
			}
		})
	}
}

func Example() {
	tr := New(Config{})
	tr.Enable()
	a := tr.Begin("/benchpb.Bench/Echo")
	a.Span(StageMeasure, ProcDPU, 1, 100, 300)
	tr.Finish(a, false)
	fmt.Println(len(tr.Snapshot()), "trace retained")
	// Output: 1 trace retained
}
