package metrics

// PipelineMetrics instruments the DPU deserialization pipeline (reserve →
// parallel build → commit): queue depth, worker utilization, and the
// reserve-to-commit latency distribution. All fields are safe for
// concurrent use; any of them may be nil when the owner samples only a
// subset.
type PipelineMetrics struct {
	// QueueDepth is the number of tasks inside the pipeline (admitted but
	// not yet committed or failed), sampled by the poller every Progress.
	QueueDepth *Gauge
	// Builds counts fills completed by pipeline workers (small inline
	// requests are filled on the poller and not counted).
	Builds *Counter
	// BusyNS accumulates worker busy time in nanoseconds; divide by
	// wall-time x workers for utilization (see Utilization).
	BusyNS *Counter
	// CommitLatencyUS is the reserve-to-commit latency histogram in
	// microseconds.
	CommitLatencyUS *Histogram
}

// DefaultCommitLatencyBounds are the histogram bucket upper bounds in
// microseconds.
var DefaultCommitLatencyBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000}

// NewPipelineMetrics registers the pipeline series in r (a nil registry
// yields unregistered, still-usable metrics).
func NewPipelineMetrics(r *Registry, labels map[string]string) *PipelineMetrics {
	if r == nil {
		return &PipelineMetrics{
			QueueDepth:      &Gauge{},
			Builds:          &Counter{},
			BusyNS:          &Counter{},
			CommitLatencyUS: NewHistogram(DefaultCommitLatencyBounds),
		}
	}
	return &PipelineMetrics{
		QueueDepth: r.Gauge("dpu_pipeline_queue_depth",
			"tasks inside the DPU deserialization pipeline", labels),
		Builds: r.Counter("dpu_pipeline_builds_total",
			"build stages completed by pipeline workers", labels),
		BusyNS: r.Counter("dpu_pipeline_worker_busy_ns_total",
			"cumulative pipeline worker busy time in nanoseconds", labels),
		CommitLatencyUS: r.Histogram("dpu_pipeline_commit_latency_us",
			"reserve-to-commit latency in microseconds", labels,
			DefaultCommitLatencyBounds),
	}
}

// ResponsePipelineMetrics instruments the response direction of the duplex
// pipeline (the DPU-side serialization offload): queue depth, serialize
// stages, worker busy time, and the dispatch-to-completion latency
// distribution. All fields are safe for concurrent use.
type ResponsePipelineMetrics struct {
	// QueueDepth is the number of responses inside the pipeline (dispatched
	// but not yet delivered), sampled by the poller every Progress.
	QueueDepth *Gauge
	// Serializes counts completed serialize/copy stages.
	Serializes *Counter
	// BusyNS accumulates response-worker busy time in nanoseconds.
	BusyNS *Counter
	// CommitLatencyUS is the dispatch-to-delivery latency histogram in
	// microseconds.
	CommitLatencyUS *Histogram
}

// NewResponsePipelineMetrics registers the response-pipeline series in r (a
// nil registry yields unregistered, still-usable metrics).
func NewResponsePipelineMetrics(r *Registry, labels map[string]string) *ResponsePipelineMetrics {
	if r == nil {
		return &ResponsePipelineMetrics{
			QueueDepth:      &Gauge{},
			Serializes:      &Counter{},
			BusyNS:          &Counter{},
			CommitLatencyUS: NewHistogram(DefaultCommitLatencyBounds),
		}
	}
	return &ResponsePipelineMetrics{
		QueueDepth: r.Gauge("dpu_resp_pipeline_queue_depth",
			"responses inside the DPU serialization pipeline", labels),
		Serializes: r.Counter("dpu_resp_pipeline_serializes_total",
			"serialize stages completed by response-pipeline workers", labels),
		BusyNS: r.Counter("dpu_resp_pipeline_worker_busy_ns_total",
			"cumulative response-pipeline worker busy time in nanoseconds", labels),
		CommitLatencyUS: r.Histogram("dpu_resp_pipeline_commit_latency_us",
			"dispatch-to-delivery latency in microseconds", labels,
			DefaultCommitLatencyBounds),
	}
}

// Utilization returns the average fraction of the given worker count kept
// busy over wallNS nanoseconds of wall time (0 when unknowable).
func (p *PipelineMetrics) Utilization(wallNS float64, workers int) float64 {
	if p == nil || p.BusyNS == nil || wallNS <= 0 || workers <= 0 {
		return 0
	}
	u := float64(p.BusyNS.Value()) / (wallNS * float64(workers))
	if u > 1 {
		u = 1
	}
	return u
}

// Utilization returns the average fraction of the given worker count kept
// busy serializing responses over wallNS nanoseconds of wall time (0 when
// unknowable).
func (p *ResponsePipelineMetrics) Utilization(wallNS float64, workers int) float64 {
	if p == nil || p.BusyNS == nil || wallNS <= 0 || workers <= 0 {
		return 0
	}
	u := float64(p.BusyNS.Value()) / (wallNS * float64(workers))
	if u > 1 {
		u = 1
	}
	return u
}
