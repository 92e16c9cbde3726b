package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The autoscaler tests drive the state machine deterministically: the
// background ticker is parked on an hour-long interval and the test calls
// evaluate directly with a synthetic clock, so every decision (and every
// suppressed one) is attributable to a specific sample.

// hourly parks the background evaluator so tests own the clock.
func hourly(ac AutoscaleConfig) *AutoscaleConfig {
	ac.Interval = time.Hour
	return &ac
}

// specForShard brute-forces a spec whose cache key routes to the given
// shard at the given pool width (seed offset keeps specs distinct across
// call sites).
func specForShard(t *testing.T, shard, width int, offset uint64) Spec {
	t.Helper()
	for i := offset; i < offset+100000; i++ {
		s := Spec{Exhibit: "fig1", Seed: i}
		if shardOf(s.Key(), width) == shard {
			return s
		}
	}
	t.Fatalf("no spec found for shard %d of %d", shard, width)
	return Spec{}
}

// pollUntil spins until cond holds or the deadline passes.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// settleLocal polls the server's own store until the job is terminal.
func settleLocal(t *testing.T, srv *Server, id string) JobView {
	t.Helper()
	var v JobView
	pollUntil(t, "job "+id+" terminal", func() bool {
		view, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		v = view
		return v.State == "done" || v.State == "failed" || v.State == "canceled"
	})
	return v
}

// TestAutoscaleGrowShrinkCycle: sustained queue pressure grows the pool
// to Max through the up-hysteresis window with cooldown suppression in
// between, and a drained queue shrinks it back to Min — with every job
// finishing done (elasticity never kills work).
func TestAutoscaleGrowShrinkCycle(t *testing.T) {
	r := newBlockingRunner(false)
	srv, _ := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 8,
		Runner:     r.run,
		Autoscale: hourly(AutoscaleConfig{
			Min: 1, Max: 3,
			UpThreshold: 0.5, DownThreshold: 0.1,
			UpWindow: 2, DownWindow: 2,
			Cooldown:   time.Minute,
			WaitBudget: time.Hour, // isolate the queue signal
		}),
	})
	defer r.unblock()

	var ids []string
	for i := 0; i < 6; i++ {
		v, err := srv.Submit(Spec{Exhibit: "fig1", Seed: uint64(i + 1)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}
	r.waitStart(t) // worker 0 is busy; the rest are queued

	t0 := time.Now()
	at := func(d time.Duration) time.Time { return t0.Add(d) }

	srv.scaler.evaluate(at(0)) // streak 1: no move yet (hysteresis)
	if got := srv.pool.workers(); got != 1 {
		t.Fatalf("width after one pressured sample = %d, want 1 (up window is 2)", got)
	}
	srv.scaler.evaluate(at(time.Second)) // streak 2: grow
	if got := srv.pool.workers(); got != 2 {
		t.Fatalf("width after up window = %d, want 2", got)
	}
	if got := srv.m.AutoscaleUp.Value(); got != 1 {
		t.Fatalf("up decisions = %d, want 1", got)
	}

	// Pressure persists, the streak re-crosses the window, but the
	// cooldown from the first grow suppresses the second.
	srv.scaler.evaluate(at(2 * time.Second))
	srv.scaler.evaluate(at(3 * time.Second))
	if got := srv.pool.workers(); got != 2 {
		t.Fatalf("width during cooldown = %d, want 2", got)
	}
	if got := srv.m.AutoscaleBlockedCooldown.Value(); got == 0 {
		t.Fatal("cooldown suppressed no decision; want blocked{cooldown} > 0")
	}

	// Past the cooldown the pool reaches Max, where the bound holds it.
	srv.scaler.evaluate(at(2 * time.Minute))
	srv.scaler.evaluate(at(2*time.Minute + time.Second))
	if got := srv.pool.workers(); got != 3 {
		t.Fatalf("width after cooldown = %d, want 3 (Max)", got)
	}
	srv.scaler.evaluate(at(4 * time.Minute))
	srv.scaler.evaluate(at(4*time.Minute + time.Second))
	if got := srv.pool.workers(); got != 3 {
		t.Fatalf("width past Max = %d, want 3", got)
	}
	if got := srv.m.AutoscaleBlockedBound.Value(); got == 0 {
		t.Fatal("bound suppressed no decision; want blocked{bound} > 0")
	}

	// Load ends: everything finishes, the queue signal decays, and the
	// down window walks the pool back to Min.
	r.unblock()
	for _, id := range ids {
		if v := settleLocal(t, srv, id); v.State != "done" {
			t.Fatalf("job %s = %s, want done (autoscaling must not kill work)", id, v.State)
		}
	}
	for i := 0; i < 60 && srv.pool.workers() > 1; i++ {
		pollUntil(t, "retiring shards drained", func() bool { return srv.pool.retiring() == 0 })
		srv.scaler.evaluate(at(10*time.Minute + time.Duration(i)*time.Minute))
	}
	if got := srv.pool.workers(); got != 1 {
		t.Fatalf("width after idle decay = %d, want 1 (Min)", got)
	}
	if got := srv.m.AutoscaleDown.Value(); got != 2 {
		t.Fatalf("down decisions = %d, want 2 (3 -> 2 -> 1)", got)
	}
	if got := srv.m.JobsFailed.Value(); got != 0 {
		t.Fatalf("failed jobs = %d, want 0", got)
	}
	if got := srv.m.AutoscaleWorkers.Value(); got != 1 {
		t.Fatalf("autoscale_workers gauge = %d, want 1", got)
	}
}

// TestAutoscaleShrinkBlockedByInflight: a shrink marks its shard retiring
// but the next shrink is suppressed (blocked{draining}) until the
// retiring worker finishes its in-flight job — which must complete done.
func TestAutoscaleShrinkBlockedByInflight(t *testing.T) {
	r := newBlockingRunner(false)
	srv, _ := newTestServer(t, Config{
		Workers:    3,
		QueueDepth: 12,
		Runner:     r.run,
		Autoscale: hourly(AutoscaleConfig{
			Min: 1, Max: 3,
			UpThreshold: 2, DownThreshold: 0.5,
			UpWindow: 1, DownWindow: 1,
			Cooldown: time.Nanosecond,
		}),
	})
	defer r.unblock()

	// One long job pinned to the shard the first shrink will retire
	// (index 2), keeping its worker busy through the shrink.
	spec := specForShard(t, 2, 3, 1)
	v, err := srv.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	r.waitStart(t)

	t0 := time.Now()
	srv.scaler.evaluate(t0) // idle: shrink 3 -> 2; shard 2 now retiring mid-job
	if got := srv.pool.workers(); got != 2 {
		t.Fatalf("width after first shrink = %d, want 2", got)
	}
	if got := srv.pool.retiring(); got != 1 {
		t.Fatalf("retiring shards = %d, want 1 (worker still on its job)", got)
	}

	srv.scaler.evaluate(t0.Add(time.Minute)) // wants 2 -> 1; must be blocked
	if got := srv.pool.workers(); got != 2 {
		t.Fatalf("width while retiring shard drains = %d, want 2", got)
	}
	if got := srv.m.AutoscaleBlockedDraining.Value(); got != 1 {
		t.Fatalf("blocked{draining} = %d, want 1", got)
	}

	// The job finishes done — drain-before-shrink never killed it — and
	// with the shard fully parked the second shrink proceeds.
	r.unblock()
	if got := settleLocal(t, srv, v.ID); got.State != "done" {
		t.Fatalf("job on retiring shard = %s, want done", got.State)
	}
	pollUntil(t, "retiring shard parked", func() bool { return srv.pool.retiring() == 0 })
	srv.scaler.evaluate(t0.Add(2 * time.Minute))
	if got := srv.pool.workers(); got != 1 {
		t.Fatalf("width after drain completes = %d, want 1", got)
	}
}

// TestAutoscaleMinEqualsMax: a pinned width samples and exports the
// signals but never decides, whatever the load does.
func TestAutoscaleMinEqualsMax(t *testing.T) {
	r := newBlockingRunner(false)
	srv, _ := newTestServer(t, Config{
		Workers:    5, // clamped into [2, 2]
		QueueDepth: 8,
		Runner:     r.run,
		Autoscale:  hourly(AutoscaleConfig{Min: 2, Max: 2, UpWindow: 1, DownWindow: 1}),
	})
	defer r.unblock()

	if got := srv.pool.workers(); got != 2 {
		t.Fatalf("initial width = %d, want 2 (Workers clamped into [Min, Max])", got)
	}
	for i := 0; i < 6; i++ {
		if _, err := srv.Submit(Spec{Exhibit: "fig1", Seed: uint64(i + 1)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	t0 := time.Now()
	for i := 0; i < 5; i++ {
		srv.scaler.evaluate(t0.Add(time.Duration(i) * time.Minute))
	}
	if got := srv.pool.workers(); got != 2 {
		t.Fatalf("width = %d, want pinned 2", got)
	}
	if up, down := srv.m.AutoscaleUp.Value(), srv.m.AutoscaleDown.Value(); up != 0 || down != 0 {
		t.Fatalf("decisions = up %d down %d, want none for min==max", up, down)
	}
	if got := srv.m.AutoscaleQueueSignal.Value(); got == 0 {
		t.Fatal("queue signal gauge not exported under pinned width")
	}
	if got := srv.m.AutoscaleWorkers.Value(); got != 2 {
		t.Fatalf("autoscale_workers gauge = %d, want 2", got)
	}
}

// TestAutoscaleValidate: inverted bounds and inverted thresholds are
// rejected at construction, not discovered at the first decision.
func TestAutoscaleValidate(t *testing.T) {
	if _, err := New(Config{Autoscale: &AutoscaleConfig{Min: 4, Max: 2}}); err == nil {
		t.Fatal("New accepted inverted autoscale bounds (min 4, max 2)")
	} else if !strings.Contains(err.Error(), "inverted") {
		t.Fatalf("inverted-bounds error %q does not name the problem", err)
	}
	if err := (AutoscaleConfig{UpThreshold: 0.2, DownThreshold: 0.5}).withDefaults().Validate(); err == nil {
		t.Fatal("Validate accepted down threshold above up threshold")
	}
	if err := (AutoscaleConfig{}).withDefaults().Validate(); err != nil {
		t.Fatalf("zero config (defaults) must validate, got %v", err)
	}
}

// TestRetryAfterTracksActiveWidth: the 429 pacing estimate divides by the
// pool's current active width, so a grow mid-window shortens the advice
// and a shrink lengthens it (the PR-10 bugfix sweep's regression).
func TestRetryAfterTracksActiveWidth(t *testing.T) {
	r := newBlockingRunner(false)
	srv, _ := newTestServer(t, Config{
		Workers: 1,
		Runner:  r.run,
		Autoscale: hourly(AutoscaleConfig{
			Min: 1, Max: 4,
		}),
	})
	defer r.unblock()

	srv.noteJobSeconds(10) // seed the execution EWMA: 10s per job
	if got := srv.RetryAfterSeconds(); got != 10 {
		t.Fatalf("RetryAfter at width 1 = %d, want 10", got)
	}
	srv.pool.grow()
	if got := srv.RetryAfterSeconds(); got != 5 {
		t.Fatalf("RetryAfter at width 2 = %d, want 5", got)
	}
	srv.pool.shrink()
	pollUntil(t, "retired shard parked", func() bool { return srv.pool.retiring() == 0 })
	if got := srv.RetryAfterSeconds(); got != 10 {
		t.Fatalf("RetryAfter back at width 1 = %d, want 10", got)
	}
}

// TestCancelQueuedOnRetiringShard: DELETE of a job queued on a shard that
// is mid-retire still frees the slot immediately (the PR-7 cancel path
// composed with PR-10 shrink), and the retiring worker parks instead of
// waiting on the discarded flight.
func TestCancelQueuedOnRetiringShard(t *testing.T) {
	r := newBlockingRunner(false)
	srv, _ := newTestServer(t, Config{
		Workers:    2,
		QueueDepth: 8,
		Runner:     r.run,
	})
	defer r.unblock()

	// Two specs pinned to shard 1: the first occupies its worker, the
	// second queues behind it.
	specA := specForShard(t, 1, 2, 1)
	specB := specForShard(t, 1, 2, specA.Seed+1)
	va, err := srv.Submit(specA)
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	r.waitStart(t)
	vb, err := srv.Submit(specB)
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}
	if got := srv.Health().Queued; got != 1 {
		t.Fatalf("queued = %d, want 1", got)
	}

	if !srv.pool.shrink() {
		t.Fatal("shrink refused")
	}
	view, err := srv.CancelJob(vb.ID)
	if err != nil {
		t.Fatalf("cancel queued job on retiring shard: %v", err)
	}
	if view.State != "canceled" {
		t.Fatalf("canceled job state = %s, want canceled", view.State)
	}
	if got := srv.Health().Queued; got != 0 {
		t.Fatalf("queued after cancel = %d, want 0 (slot freed immediately)", got)
	}

	r.unblock()
	if got := settleLocal(t, srv, va.ID); got.State != "done" {
		t.Fatalf("running job = %s, want done", got.State)
	}
	pollUntil(t, "retiring shard parked", func() bool { return srv.pool.retiring() == 0 })
}

// TestPoolShrinkDrainsBacklog: a retired shard's queued flights all run
// to completion before the worker parks, and a later grow revives the
// parked slot with a fresh worker.
func TestPoolShrinkDrainsBacklog(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	done := make(chan string, 8)
	p := newPool(2, 8, func(fl *flight) {
		started <- fl.key
		<-release
		done <- fl.key
	}, NewMetrics(nil))
	p.start()

	keyFor := func(shard, width int, n int) string {
		for i := 0; i < 100000; i++ {
			k := fmt.Sprintf("k%d-%d", n, i)
			if shardOf(k, width) == shard {
				return k
			}
		}
		t.Fatalf("no key for shard %d of %d", shard, width)
		return ""
	}

	// Three flights on shard 1: one executing, two queued.
	for n := 0; n < 3; n++ {
		if err := p.submit(&flight{key: keyFor(1, 2, n)}); err != nil {
			t.Fatalf("submit %d: %v", n, err)
		}
	}
	<-started

	if !p.shrink() {
		t.Fatal("shrink refused")
	}
	if got := p.workers(); got != 1 {
		t.Fatalf("active width = %d, want 1", got)
	}
	if got := p.retiring(); got != 1 {
		t.Fatalf("retiring = %d, want 1", got)
	}
	// New work routes only to the surviving width.
	if err := p.submit(&flight{key: keyFor(0, 1, 99)}); err != nil {
		t.Fatalf("submit after shrink: %v", err)
	}
	<-started

	close(release)
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		select {
		case k := <-done:
			seen[k] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("flight %d never finished; backlog dropped by shrink", i)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("finished %d distinct flights, want 4", len(seen))
	}
	pollUntil(t, "retired worker parked", func() bool { return p.retiring() == 0 })

	// Grow revives the parked slot.
	if !p.grow() {
		t.Fatal("grow refused")
	}
	if got := p.workers(); got != 2 {
		t.Fatalf("width after grow = %d, want 2", got)
	}
	if err := p.submit(&flight{key: keyFor(1, 2, 100)}); err != nil {
		t.Fatalf("submit to revived shard: %v", err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("revived shard's worker never picked up work")
	}
}
