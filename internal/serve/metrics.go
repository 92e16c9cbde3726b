package serve

import (
	"fmt"
	"strconv"

	"exaresil/internal/obs"
)

// Metrics is the service's obs surface, following the repository's layer
// convention (exaresil_serve_*). Construction on a nil registry yields
// nil-metric no-ops throughout, so a server without observability pays
// only nil checks.
type Metrics struct {
	reg *obs.Registry

	// HTTP front end.
	// Requests counts responses by route and status code (labels are
	// resolved per call: the code is not known until the handler ends).
	// RequestSeconds is the per-route latency distribution.

	// Job lifecycle.
	Submitted     *obs.Counter // jobs accepted (all cache dispositions)
	JobsDone      *obs.Counter
	JobsFailed    *obs.Counter
	JobsCanceled  *obs.Counter
	JobsInflight  *obs.Gauge     // flights currently executing
	Executions    *obs.Counter   // spec runs actually started (single-flight dedups these)
	JobSeconds    *obs.Histogram // execution wall time
	JobsAbandoned *obs.Counter   // timeouts/cancels that left a simulation running detached
	StoreEvicted  *obs.Counter

	// Queue and backpressure.
	QueueRejected *obs.Counter

	// Result cache.
	CacheHits      *obs.Counter
	CacheJoined    *obs.Counter
	CacheMisses    *obs.Counter
	CacheEvictions *obs.Counter
	CacheSize      *obs.Gauge

	// Checkpoint/restart (job-level snapshots; DESIGN.md §10).
	Snapshots             *obs.Gauge   // partial-result snapshots retained
	SnapshotResumes       *obs.Counter // executions that began from a non-empty snapshot
	SnapshotCellsRecorded *obs.Counter // grid cells checkpointed as they finished
	SnapshotCellsRestored *obs.Counter // grid cells restored instead of recomputed
	SnapshotsEvicted      *obs.Counter
	CrashesInjected       *obs.Counter // CrashHook firings (chaos worker crashes)
}

// NewMetrics registers the service's metric families on r (nil = disabled).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		reg:           r,
		Submitted:     r.Counter("exaresil_serve_jobs_submitted_total", "jobs accepted for execution or cache resolution"),
		JobsDone:      r.Counter("exaresil_serve_jobs_total", "terminal job outcomes", obs.L("state", "done")),
		JobsFailed:    r.Counter("exaresil_serve_jobs_total", "terminal job outcomes", obs.L("state", "failed")),
		JobsCanceled:  r.Counter("exaresil_serve_jobs_total", "terminal job outcomes", obs.L("state", "canceled")),
		JobsInflight:  r.Gauge("exaresil_serve_jobs_inflight", "flights currently executing on a worker"),
		Executions:    r.Counter("exaresil_serve_executions_total", "experiment runs started (identical concurrent specs share one)"),
		JobSeconds:    r.Histogram("exaresil_serve_job_seconds", "execution wall time per flight", obs.LatencyBuckets),
		JobsAbandoned: r.Counter("exaresil_serve_jobs_abandoned_total", "executions detached by timeout or cancel while still running"),
		StoreEvicted:  r.Counter("exaresil_serve_store_evicted_total", "terminal jobs aged out of the bounded job store"),

		QueueRejected: r.Counter("exaresil_serve_queue_rejections_total", "submissions rejected with 429 because the target shard queue was full"),

		CacheHits:      r.Counter("exaresil_serve_cache_requests_total", "result cache outcomes at submit", obs.L("outcome", "hit")),
		CacheJoined:    r.Counter("exaresil_serve_cache_requests_total", "result cache outcomes at submit", obs.L("outcome", "joined")),
		CacheMisses:    r.Counter("exaresil_serve_cache_requests_total", "result cache outcomes at submit", obs.L("outcome", "miss")),
		CacheEvictions: r.Counter("exaresil_serve_cache_evictions_total", "finished results evicted from the LRU"),
		CacheSize:      r.Gauge("exaresil_serve_cache_size", "entries resident in the result cache (finished + in flight)"),

		Snapshots:             r.Gauge("exaresil_serve_snapshots", "partial-result snapshots retained for resume"),
		SnapshotResumes:       r.Counter("exaresil_serve_snapshot_resumes_total", "executions resumed from a prior attempt's snapshot"),
		SnapshotCellsRecorded: r.Counter("exaresil_serve_snapshot_cells_total", "grid-cell checkpoint events", obs.L("event", "recorded")),
		SnapshotCellsRestored: r.Counter("exaresil_serve_snapshot_cells_total", "grid-cell checkpoint events", obs.L("event", "restored")),
		SnapshotsEvicted:      r.Counter("exaresil_serve_snapshots_evicted_total", "snapshots evicted from the bounded checkpoint store"),
		CrashesInjected:       r.Counter("exaresil_serve_crashes_injected_total", "worker crashes injected by the configured CrashHook"),
	}
}

// QueueDepth is the per-shard queue depth gauge.
func (m *Metrics) QueueDepth(shard int) *obs.Gauge {
	return m.reg.Gauge("exaresil_serve_queue_depth", "flights waiting in each shard's queue",
		obs.L("shard", strconv.Itoa(shard)))
}

// Request counts one HTTP response and observes its latency.
func (m *Metrics) Request(route string, code int, seconds float64) {
	m.reg.Counter("exaresil_serve_http_requests_total", "HTTP responses by route and status",
		obs.L("route", route), obs.L("code", fmt.Sprintf("%d", code))).Inc()
	m.reg.Histogram("exaresil_serve_http_request_seconds", "HTTP request latency by route",
		obs.LatencyBuckets, obs.L("route", route)).Observe(seconds)
}

// nilSafe returns m, or a metrics bundle over the nil registry when m is
// nil, so internal components can call through unconditionally.
func (m *Metrics) nilSafe() *Metrics {
	if m == nil {
		return NewMetrics(nil)
	}
	return m
}
