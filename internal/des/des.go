// Package des implements the discrete-event simulation engine at the heart
// of the exascale resilience study.
//
// The engine is intentionally minimal: a simulation owns a clock and a
// priority queue of scheduled events; each event carries a callback that
// may schedule further events. Determinism is guaranteed by breaking time
// ties with a monotonically increasing sequence number, so a simulation
// driven by deterministic callbacks and a seeded rng.Source always replays
// identically.
//
// Events cannot be canceled: every scheduled event fires unless the run is
// stopped first. The cluster simulation, the package's user, only ever
// adds arrivals, mapping passes and departures, each of which must happen.
// (The per-application technique engine, whose failures do invalidate
// pending work, holds at most two deadlines and keeps them itself; see
// internal/resilience.)
package des

import (
	"fmt"

	"exaresil/internal/units"
)

// Callback is the work an event performs when it fires. The simulator
// passes itself so callbacks can schedule follow-on events.
type Callback func(sim *Simulator)

// Event is a scheduled occurrence. The zero value is meaningless; events
// are created by Simulator.Schedule and friends.
type Event struct {
	at    units.Duration
	seq   uint64
	fn    Callback
	label string
}

// Time reports when the event is (or was) scheduled to fire.
func (e *Event) Time() units.Duration { return e.at }

// Label reports the diagnostic label given at scheduling time.
func (e *Event) Label() string { return e.label }

// eventHeap is a min-heap ordered by (time, seq). The heap operations are
// hand-inlined rather than delegated to container/heap: every Schedule/Step
// pays them, and the interface dispatch plus swap-based sifting of the
// generic package showed up as a double-digit share of whole-study CPU
// profiles. The hole-style sift below moves the
// displaced event once instead of swapping it down level by level, halving
// the pointer stores (and thus GC write barriers) per operation. Because
// (time, seq) is a total order, pop order — and hence simulation behavior —
// is independent of the heap's internal arrangement.
type eventHeap []*Event

// eventLess orders the heap by (time, seq).
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends e and restores the heap property.
func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() *Event {
	old := *h
	e := old[0]
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		old[0] = last
		h.siftDown(0)
	}
	return e
}

// siftUp moves h[i] toward the root until its parent is no larger,
// shifting displaced parents into the hole rather than swapping.
func (h eventHeap) siftUp(i int) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if !eventLess(e, p) {
			break
		}
		h[i] = p
		i = parent
	}
	h[i] = e
}

// siftDown moves h[i] toward the leaves until both children are no
// smaller, shifting the smaller child into the hole at each level.
func (h eventHeap) siftDown(i int) {
	n := len(h)
	e := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventLess(h[r], h[child]) {
			child = r
		}
		c := h[child]
		if !eventLess(c, e) {
			break
		}
		h[i] = c
		i = child
	}
	h[i] = e
}

// Tracer receives a notification immediately before each event fires.
// It exists for debugging and for the simulator's own tests; production
// studies leave it nil.
type Tracer func(at units.Duration, label string)

// Simulator is a discrete-event simulation run. The zero value is ready to
// use. Simulators are not safe for concurrent use; parallel studies run one
// Simulator per goroutine.
type Simulator struct {
	now     units.Duration
	queue   eventHeap
	seq     uint64
	stopped bool

	// m is the observability bundle (see SetMetrics). The zero value is
	// disabled: each hook is a nil-receiver no-op.
	m Metrics

	// tally batches the per-event observations locally while a bundle is
	// attached; FlushMetrics (called automatically when Run returns)
	// merges it into the shared atomic series. Batching turns three atomic
	// operations per Schedule into plain integer adds on simulator-owned
	// state — the single-goroutine contract makes the local counters safe,
	// and boundary flushing keeps totals exact.
	tally struct {
		enabled               bool
		scheduled, dispatched uint64
		depthPeak             int64
		depthSum              float64
		depthBuckets          []uint64
	}

	// Trace, when non-nil, observes every fired event.
	Trace Tracer
}

// New returns an empty simulation with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now reports the current simulation time.
func (s *Simulator) Now() units.Duration { return s.now }

// Schedule arranges for fn to run at absolute time at, returning the
// event. Scheduling in the past (before Now) panics: it always indicates a
// logic error in the caller, and letting time run backwards would corrupt
// every statistic downstream.
func (s *Simulator) Schedule(at units.Duration, label string, fn Callback) *Event {
	if at < s.now {
		panic(fmt.Sprintf("des: schedule %q at %v before now %v", label, at, s.now))
	}
	if fn == nil {
		panic("des: schedule with nil callback")
	}
	e := &Event{at: at, seq: s.seq, fn: fn, label: label}
	s.seq++
	s.queue.push(e)
	if s.tally.enabled {
		s.tally.scheduled++
		depth := int64(len(s.queue))
		if depth > s.tally.depthPeak {
			s.tally.depthPeak = depth
		}
		// depthBuckets is empty when the attached bundle has no HeapDepth
		// histogram (partially populated bundles in tests).
		if len(s.tally.depthBuckets) > 0 {
			fd := float64(depth)
			s.tally.depthBuckets[s.m.HeapDepth.FindBucket(fd)]++
			s.tally.depthSum += fd
		}
	}
	return e
}

// After arranges for fn to run d after the current time. Negative delays
// panic, matching Schedule.
func (s *Simulator) After(d units.Duration, label string, fn Callback) *Event {
	return s.Schedule(s.now+d, label, fn)
}

// Stop makes the current Run call return after the in-flight callback
// completes. Pending events remain queued.
func (s *Simulator) Stop() { s.stopped = true }

// Step fires the earliest pending event, advancing the clock to its time.
// It reports false if the queue was empty.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue.pop()
	if e.at < s.now {
		panic("des: event queue time went backwards")
	}
	s.now = e.at
	s.tally.dispatched++
	if s.Trace != nil {
		s.Trace(e.at, e.label)
	}
	e.fn(s)
	return true
}

// Run fires events until the queue is empty or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
	s.FlushMetrics()
}

// FlushMetrics merges the locally batched event tallies into the attached
// bundle's shared atomic series. Run and SetMetrics flush automatically;
// only callers driving Step directly and reading the shared series
// mid-simulation need to call it themselves. A no-op when no bundle is
// attached.
func (s *Simulator) FlushMetrics() {
	t := &s.tally
	if !t.enabled {
		return
	}
	if t.scheduled != 0 {
		s.m.Scheduled.Add(t.scheduled)
		t.scheduled = 0
	}
	if t.dispatched != 0 {
		s.m.Dispatched.Add(t.dispatched)
		t.dispatched = 0
	}
	if t.depthPeak != 0 {
		s.m.HeapDepthPeak.SetMax(t.depthPeak)
		t.depthPeak = 0
	}
	if t.depthSum != 0 {
		s.m.HeapDepth.AddBuckets(t.depthBuckets, t.depthSum)
		clear(t.depthBuckets)
		t.depthSum = 0
	}
}
