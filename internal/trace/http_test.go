package trace

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dpurpc/internal/metrics"
)

// Debug HTTP handler coverage: status codes, content types, the new /tail
// and /gauges endpoints, pprof gating, and a concurrent-scrape soak (run
// under -race via the Makefile race target, which includes this package).

func testMux(t *testing.T, opts DebugOptions) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewDebugMux(opts))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, base, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

// populate runs a few traced, windowed "requests" so every endpoint has
// data.
func populate(tr *Tracer, win *metrics.RPCWindow) (slowest uint64) {
	for i := 0; i < 5; i++ {
		a := tr.Begin("/svc/m")
		// Spans must land inside [Begin, Finish] or Breakdown clamps them
		// away; spin a few µs so the stamped windows are real.
		start := Now()
		a.Span(StageMeasure, ProcDPU, 0, start, start+1000)
		a.Span(StageHostHandler, ProcHost, 1, start+2000, start+4000)
		for Now() < start+4000 {
		}
		tr.Finish(a, false)
		dur := int64((i + 1)) * 100_000 // 100µs .. 500µs
		win.Observe(dur, a.ID(), false)
		if i == 4 {
			slowest = a.ID()
		}
	}
	return slowest
}

func TestDebugMuxStatusAndContentTypes(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("x_total", "X.", nil).Add(1)
	tr := New(Config{RingSize: 64, MaxActive: 64})
	tr.Enable()
	win := metrics.NewRPCWindow()
	smp := metrics.NewSampler(time.Hour, 8, reg)
	smp.Register("gauge_test_depth", "Depth.", nil, func() float64 { return 7 })
	populate(tr, win)

	srv := testMux(t, DebugOptions{Registry: reg, Tracer: tr, Window: win, Sampler: smp})
	checks := []struct {
		path     string
		wantCT   string
		wantBody string
	}{
		{"/healthz", "text/plain; charset=utf-8", "ok"},
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8", "x_total 1"},
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8", "trace_finished_total 5"},
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8", "rpc_window_count 5"},
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8", "gauge_test_depth 7"},
		{"/trace", "application/json", `"traceEvents"`},
		{"/anatomy", "text/plain; charset=utf-8", StageMeasure},
		{"/anatomy", "text/plain; charset=utf-8", "window("},
		{"/tail", "text/plain; charset=utf-8", "windowed tail"},
		{"/gauges", "application/json", "gauge_test_depth"},
		{"/", "text/plain; charset=utf-8", "/tail"},
	}
	for _, c := range checks {
		code, body, ct := get(t, srv.URL, c.path)
		if code != http.StatusOK {
			t.Errorf("%s: status %d", c.path, code)
		}
		if ct != c.wantCT {
			t.Errorf("%s: content-type %q, want %q", c.path, ct, c.wantCT)
		}
		if !strings.Contains(body, c.wantBody) {
			t.Errorf("%s: body missing %q:\n%s", c.path, c.wantBody, body)
		}
	}
	if code, _, _ := get(t, srv.URL, "/nonexistent"); code != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", code)
	}
	// /gauges must decode as name -> samples.
	_, body, _ := get(t, srv.URL, "/gauges")
	var series map[string][]metrics.Sample
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("/gauges not JSON: %v", err)
	}
	if len(series["gauge_test_depth"]) == 0 || series["gauge_test_depth"][0].V != 7 {
		t.Fatalf("/gauges series wrong: %v", series)
	}
}

func TestDebugMuxUnconfigured(t *testing.T) {
	srv := testMux(t, DebugOptions{})
	for _, path := range []string{"/metrics", "/trace", "/anatomy"} {
		if code, _, _ := get(t, srv.URL, path); code != http.StatusNotFound {
			t.Errorf("%s without backing: status %d, want 404", path, code)
		}
	}
	// /tail and /gauges are not even mounted without Window/Sampler.
	for _, path := range []string{"/tail", "/gauges", "/debug/pprof/"} {
		if code, _, _ := get(t, srv.URL, path); code != http.StatusNotFound {
			t.Errorf("%s unmounted: status %d, want 404", path, code)
		}
	}
	// The index only lists what exists.
	_, body, _ := get(t, srv.URL, "/")
	for _, absent := range []string{"/tail", "/gauges", "/debug/pprof/"} {
		if strings.Contains(body, absent) {
			t.Errorf("index lists %s without backing", absent)
		}
	}
}

func TestDebugMuxTailResolvesExemplars(t *testing.T) {
	tr := New(Config{RingSize: 64, MaxActive: 64})
	tr.Enable()
	win := metrics.NewRPCWindow()
	slowest := populate(tr, win)

	srv := testMux(t, DebugOptions{Tracer: tr, Window: win})
	_, body, _ := get(t, srv.URL, "/tail?n=3")
	// The slowest request's trace ID must appear, resolved to stage rows.
	if !strings.Contains(body, "trace="+strconv.FormatUint(slowest, 10)) {
		t.Fatalf("/tail missing slowest trace %d:\n%s", slowest, body)
	}
	if !strings.Contains(body, StageMeasure) || !strings.Contains(body, StageHostHandler) {
		t.Fatalf("/tail exemplar not expanded to stages:\n%s", body)
	}
	if !strings.Contains(body, "e2e") {
		t.Fatalf("/tail missing e2e row:\n%s", body)
	}
	// ?n= is clamped to sane values rather than erroring.
	if code, _, _ := get(t, srv.URL, "/tail?n=bogus"); code != http.StatusOK {
		t.Fatal("/tail with bad n should still serve")
	}

	// After a drain the exemplar IDs no longer resolve but /tail still
	// reports the windowed numbers.
	tr.Drain()
	_, body, _ = get(t, srv.URL, "/tail")
	if !strings.Contains(body, "aged out") {
		t.Fatalf("/tail after drain should mark unresolved exemplars:\n%s", body)
	}
}

func TestDebugMuxPprof(t *testing.T) {
	srv := testMux(t, DebugOptions{Pprof: true})
	code, body, _ := get(t, srv.URL, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Fatalf("pprof index: status %d body %q", code, body)
	}
	if code, _, _ := get(t, srv.URL, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof cmdline: status %d", code)
	}
	_, idx, _ := get(t, srv.URL, "/")
	if !strings.Contains(idx, "/debug/pprof/") {
		t.Error("index does not list pprof when enabled")
	}
}

// TestDebugMuxConcurrentScrape hammers every endpoint from several
// goroutines while the "datapath" keeps tracing and observing — the
// race-detector leg of the handler coverage.
func TestDebugMuxConcurrentScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Config{RingSize: 128, MaxActive: 128})
	tr.Enable()
	win := metrics.NewRPCWindow()
	smp := metrics.NewSampler(time.Hour, 8, reg)
	smp.Register("gauge_depth", "Depth.", nil, func() float64 { return 1 })
	srv := testMux(t, DebugOptions{Registry: reg, Tracer: tr, Window: win, Sampler: smp})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: keeps traces and window samples flowing
		defer wg.Done()
		i := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			a := tr.Begin("/svc/m")
			s := Now()
			a.Span(StageMeasure, ProcDPU, 0, s, s+100)
			tr.Finish(a, i%13 == 0)
			win.Observe(i%500_000, a.ID(), i%13 == 0)
		}
	}()
	paths := []string{"/metrics", "/trace", "/anatomy", "/tail", "/gauges", "/healthz"}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				path := paths[(g*20+i)%len(paths)]
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d", path, resp.StatusCode)
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}
