package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"

	"dpurpc/internal/metrics"
)

// Debug HTTP server: live telemetry for a running stack or benchmark,
// served on a side port behind -debug-addr. Stdlib only.
//
//	/metrics  Prometheus text exposition of the metrics.Registry,
//	          including mirrored tracer drop counters and windowed
//	          rate/quantile gauges when configured
//	/trace    completed traces as Chrome trace-event JSON (Perfetto-loadable);
//	          ?drain=1 clears the rings after reading
//	/anatomy  aggregated per-stage latency breakdown, plain text
//	/tail     the trailing window's slowest requests, each resolved to its
//	          stage-by-stage anatomy via histogram exemplars (?n= count)
//	/gauges   sampled resource time series (arena occupancy, queue depths,
//	          busy fractions) as JSON
//	/healthz  liveness probe
//	/debug/pprof/ net/http/pprof profiles (opt-in via DebugOptions.Pprof)

// DebugOptions configures NewDebugMux. Every field is optional; the
// endpoints that depend on a missing field report 404.
type DebugOptions struct {
	// Registry backs /metrics.
	Registry *metrics.Registry
	// Tracer backs /trace, /anatomy, and exemplar resolution on /tail.
	Tracer *Tracer
	// Refresh, when non-nil, runs before each /metrics render so gauges
	// sampled on demand can be brought up to date.
	Refresh func()
	// AnatomyExtra, when non-nil, runs after the stage table on every
	// /anatomy render and may append extra report lines (e.g. the
	// copied-vs-referenced payload-byte split, which lives outside the
	// tracer). Called from the HTTP serving goroutine — read shared state
	// through atomics or snapshots.
	AnatomyExtra func(w io.Writer)
	// Window backs /tail and adds live windowed rate/quantile gauges to
	// /metrics and a summary line to /anatomy.
	Window *metrics.RPCWindow
	// Sampler backs /gauges; it is polled once per /metrics scrape as well
	// so mirrored gauges are never stale.
	Sampler *metrics.Sampler
	// Pprof mounts net/http/pprof under /debug/pprof/ (explicitly, not via
	// the package's default-mux side effects).
	Pprof bool
}

// NewDebugMux builds the debug handler from DebugOptions.
func NewDebugMux(opts DebugOptions) *http.ServeMux {
	reg, t := opts.Registry, opts.Tracer
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	// Tracer drop counters mirrored into the registry (registered up front
	// so they render even before the first trace): silent span loss —
	// Begin refusals past MaxActive, ring overwrites — is visible to any
	// scraper, not only to callers of Tracer.Stats.
	var traceStats func()
	if reg != nil && t != nil {
		started := reg.Counter("trace_started_total", "Traces begun.", nil)
		finished := reg.Counter("trace_finished_total", "Traces completed into a ring.", nil)
		dropAct := reg.Counter("trace_dropped_active_total", "Traces refused at Begin: too many in flight.", nil)
		dropRing := reg.Counter("trace_dropped_ring_total", "Completed traces overwritten in a ring before collection.", nil)
		traceStats = func() {
			st := t.Stats()
			started.Set(st.Started)
			finished.Set(st.Finished)
			dropAct.Set(st.DroppedActive)
			dropRing.Set(st.DroppedRing)
		}
	}
	// Windowed rates and quantiles as gauges: a scrape sees the trailing
	// window, not process-lifetime averages.
	var windowStats func()
	if reg != nil && opts.Window != nil {
		win := opts.Window
		rps := reg.Gauge("rpc_window_rps", "Requests per second over the trailing window.", nil)
		erps := reg.Gauge("rpc_window_error_rps", "Errors per second over the trailing window.", nil)
		count := reg.Gauge("rpc_window_count", "Requests inside the trailing window.", nil)
		p50 := reg.Gauge("rpc_window_p50_us", "Windowed p50 latency upper bound, microseconds.", nil)
		p90 := reg.Gauge("rpc_window_p90_us", "Windowed p90 latency upper bound, microseconds.", nil)
		p99 := reg.Gauge("rpc_window_p99_us", "Windowed p99 latency upper bound, microseconds.", nil)
		windowStats = func() {
			rps.Set(win.Requests.Rate())
			erps.Set(win.Errors.Rate())
			snap := win.LatencyUS.Snapshot()
			count.Set(float64(snap.Count))
			if snap.Count == 0 {
				// NaN would corrupt the text exposition for some parsers.
				p50.Set(0)
				p90.Set(0)
				p99.Set(0)
				return
			}
			p50.Set(quantileGauge(snap, 0.50))
			p90.Set(quantileGauge(snap, 0.90))
			p99.Set(quantileGauge(snap, 0.99))
		}
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.Error(w, "no metrics registry configured", http.StatusNotFound)
			return
		}
		if opts.Refresh != nil {
			opts.Refresh()
		}
		opts.Sampler.SampleOnce()
		if traceStats != nil {
			traceStats()
		}
		if windowStats != nil {
			windowStats()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, reg.Render())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, "no tracer configured", http.StatusNotFound)
			return
		}
		var traces []Trace
		if r.URL.Query().Get("drain") != "" {
			traces = t.Drain()
		} else {
			traces = t.Snapshot()
		}
		w.Header().Set("Content-Type", "application/json")
		if err := WriteChrome(w, traces); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/anatomy", func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, "no tracer configured", http.StatusNotFound)
			return
		}
		stats := Breakdown(t.Snapshot())
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if len(stats) == 0 {
			fmt.Fprintln(w, "no completed traces")
			return
		}
		wtr := &strings.Builder{}
		fmt.Fprintf(wtr, "%-22s %8s %10s %10s %10s %10s\n",
			"stage", "count", "p50_us", "p90_us", "p99_us", "mean_us")
		for _, s := range stats {
			fmt.Fprintf(wtr, "%-22s %8d %10.1f %10.1f %10.1f %10.1f\n",
				s.Stage, s.Count, s.P50US, s.P90US, s.P99US, s.MeanUS)
		}
		st := t.Stats()
		fmt.Fprintf(wtr, "\ntraces: started=%d finished=%d dropped_active=%d dropped_ring=%d\n",
			st.Started, st.Finished, st.DroppedActive, st.DroppedRing)
		if win := opts.Window; win != nil {
			snap := win.LatencyUS.Snapshot()
			if snap.Count > 0 {
				fmt.Fprintf(wtr, "window(%v): %.0f req/s  p50=%sus p90=%sus p99=%sus (see /tail)\n",
					snap.Window, win.Requests.Rate(),
					fmtQuantile(snap.Quantile(0.50)), fmtQuantile(snap.Quantile(0.90)),
					fmtQuantile(snap.Quantile(0.99)))
			}
		}
		if opts.AnatomyExtra != nil {
			opts.AnatomyExtra(wtr)
		}
		fmt.Fprint(w, wtr.String())
	})
	if opts.Window != nil {
		mux.HandleFunc("/tail", func(w http.ResponseWriter, r *http.Request) {
			n := 8
			if s := r.URL.Query().Get("n"); s != "" {
				if v, err := strconv.Atoi(s); err == nil && v > 0 && v <= 64 {
					n = v
				}
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			WriteTail(w, t, opts.Window, n)
		})
	}
	if opts.Sampler != nil {
		mux.HandleFunc("/gauges", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			if err := enc.Encode(opts.Sampler.Series()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		paths := []string{"/metrics", "/trace", "/anatomy", "/healthz"}
		if opts.Window != nil {
			paths = append(paths, "/tail")
		}
		if opts.Sampler != nil {
			paths = append(paths, "/gauges")
		}
		if opts.Pprof {
			paths = append(paths, "/debug/pprof/")
		}
		sort.Strings(paths)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "dpurpc debug server")
		for _, p := range paths {
			fmt.Fprintln(w, "  "+p)
		}
	})
	return mux
}

// quantileGauge converts a bucket-bound quantile into a gauge value,
// flattening the +Inf overflow bucket to the largest finite bound so the
// exposition stays parseable.
func quantileGauge(snap metrics.WindowSnapshot, q float64) float64 {
	v := snap.Quantile(q)
	if len(snap.Buckets) >= 2 && v > float64(snap.Buckets[len(snap.Buckets)-2].Bound) {
		return float64(snap.Buckets[len(snap.Buckets)-2].Bound)
	}
	return v
}

// DebugServer is a running debug HTTP listener.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ListenDebug binds addr (e.g. "localhost:6060"; ":0" picks a free port)
// and serves mux on it in a background goroutine.
func ListenDebug(addr string, mux http.Handler) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DebugServer{ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = d.srv.Serve(ln) }()
	return d, nil
}

// Addr returns the bound address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the listener.
func (d *DebugServer) Close() error { return d.srv.Close() }
