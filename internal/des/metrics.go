package des

import "exaresil/internal/obs"

// Metrics is the engine's observability bundle. The zero value (all nil
// series) is the disabled bundle: every hook degrades to a nil-receiver
// no-op, so an uninstrumented Simulator pays only the pointer test inside
// each obs call. Construct with NewMetrics and attach via SetMetrics; many
// simulators may share one bundle (the series are atomic), which is exactly
// what the parallel study drivers do — the counters then aggregate across
// every engine in the study.
type Metrics struct {
	// Scheduled and Dispatched count events entering and leaving the
	// queue; Canceled counts events removed before firing. The
	// per-application engine of internal/resilience keeps its two
	// deadlines without a Simulator and feeds all three counters with its
	// own per-run tallies, so they cover every event of a study.
	Scheduled  *obs.Counter
	Dispatched *obs.Counter
	Canceled   *obs.Counter
	// HeapDepthPeak is the maximum Simulator queue depth ever observed.
	HeapDepthPeak *obs.Gauge
	// HeapDepth samples the Simulator queue depth at every Schedule.
	HeapDepth *obs.Histogram
}

// NewMetrics registers the engine's series on r (nil r yields the disabled
// bundle). Re-registration returns the same shared bundle: the whole table
// is memoized per registry, so layers that construct one bundle per
// simulation run pay a single cache hit instead of five series lookups.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return r.Memo("des.Metrics", func() any { return newMetrics(r) }).(*Metrics)
}

func newMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Scheduled:     r.Counter("exaresil_des_events_scheduled_total", "events pushed onto the simulation queue"),
		Dispatched:    r.Counter("exaresil_des_events_dispatched_total", "events fired by the simulation loop"),
		Canceled:      r.Counter("exaresil_des_events_canceled_total", "events removed before firing"),
		HeapDepthPeak: r.Gauge("exaresil_des_heap_depth_peak", "maximum event-queue depth observed"),
		HeapDepth:     r.Histogram("exaresil_des_heap_depth", "event-queue depth sampled at each Schedule", obs.DepthBuckets),
	}
}

// SetMetrics attaches (or, with nil, detaches) an observability bundle.
// Attachment never changes simulation behavior: the bundle only counts.
// Tallies batched since the last flush are merged into the outgoing bundle
// before the swap, and the local tally state is re-zeroed so the incoming
// bundle never inherits pre-attachment events.
func (s *Simulator) SetMetrics(m *Metrics) {
	s.FlushMetrics()
	t := &s.tally
	t.scheduled, t.dispatched = 0, 0
	t.depthPeak, t.depthSum = 0, 0
	if m == nil {
		s.m = Metrics{}
		t.enabled = false
		return
	}
	s.m = *m
	t.enabled = true
	if n := s.m.HeapDepth.NumBuckets(); n != len(t.depthBuckets) {
		t.depthBuckets = make([]uint64, n)
	} else {
		clear(t.depthBuckets)
	}
}
