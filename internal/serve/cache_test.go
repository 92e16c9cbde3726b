package serve

import (
	"errors"
	"testing"
	"time"
)

func admitAll(*flight) error { return nil }

// mintJob is the test stand-in for Store.newJob.
func mintJob(cache string, fl *flight) *Job {
	return &Job{cache: cache, flight: fl, state: StateQueued}
}

// TestCacheSingleFlightAdmission: the first acquire of a key creates and
// leads a flight; subsequent acquires join it; completion turns the key
// into a hit.
func TestCacheSingleFlightAdmission(t *testing.T) {
	m := NewMetrics(nil)
	c := newCache(8, m)
	spec := Spec{Exhibit: "fig1", Trials: 2}

	j1, res, err := c.acquire(spec, admitAll, mintJob)
	if err != nil || res != nil || j1 == nil || j1.cache != CacheMiss || j1.flight == nil {
		t.Fatalf("first acquire: job=%+v res=%v err=%v, want a miss on a fresh flight", j1, res, err)
	}
	j2, res2, err := c.acquire(spec, admitAll, mintJob)
	if err != nil || res2 != nil || j2 == nil || j2.cache != CacheJoined {
		t.Fatalf("second acquire: job=%+v res=%v err=%v, want join", j2, res2, err)
	}
	if j2.flight != j1.flight {
		t.Fatal("second acquire joined a different flight")
	}
	if fl := j1.flight; fl.live != 2 || len(fl.jobs) != 2 {
		t.Fatalf("flight has %d jobs, %d live; want both acquires attached", len(fl.jobs), fl.live)
	}

	want := &Result{Digest: "d"}
	c.complete(j1.flight, want)
	j3, res3, err := c.acquire(spec, admitAll, mintJob)
	if err != nil || j3.cache != CacheHit || j3.flight != nil {
		t.Fatalf("post-complete acquire: job=%+v err=%v, want a hit with no flight", j3, err)
	}
	if res3 != want {
		t.Fatalf("post-complete acquire returned %v, want the completed result", res3)
	}
}

// TestCacheRejectedFlightNotInserted: when admission fails (queue full),
// the flight must not be joinable and no job is minted — the next acquire
// of the same key creates a fresh one.
func TestCacheRejectedFlightNotInserted(t *testing.T) {
	c := newCache(8, NewMetrics(nil))
	spec := Spec{Exhibit: "fig1"}
	reject := func(*flight) error { return ErrSaturated }
	minted := 0
	countMint := func(cache string, fl *flight) *Job { minted++; return mintJob(cache, fl) }
	if _, _, err := c.acquire(spec, reject, countMint); !errors.Is(err, ErrSaturated) {
		t.Fatalf("rejected acquire: err=%v, want ErrSaturated", err)
	}
	if c.size() != 0 || minted != 0 {
		t.Fatalf("rejected flight left cache size %d, %d jobs minted; want 0, 0", c.size(), minted)
	}
	j, _, err := c.acquire(spec, admitAll, countMint)
	if err != nil || j == nil || j.cache != CacheMiss {
		t.Fatalf("retry after rejection: job=%+v err=%v, want fresh flight", j, err)
	}
}

// TestCacheForgetOnlyOwner: forget removes a failed flight's key, but not
// when a newer flight has since taken the key over.
func TestCacheForgetOnlyOwner(t *testing.T) {
	c := newCache(8, NewMetrics(nil))
	spec := Spec{Exhibit: "fig1"}
	j1, _, _ := c.acquire(spec, admitAll, mintJob)
	c.forget(j1.flight)
	if c.size() != 0 {
		t.Fatalf("forget left size %d, want 0", c.size())
	}
	j2, _, _ := c.acquire(spec, admitAll, mintJob)
	c.forget(j1.flight) // stale forget must not evict the new flight's entry
	if c.size() != 1 {
		t.Fatalf("stale forget removed the new owner: size %d, want 1", c.size())
	}
	c.complete(j2.flight, &Result{})
	if _, res, _ := c.acquire(spec, admitAll, mintJob); res == nil {
		t.Fatal("completed result missing after stale forget")
	}
}

// TestCacheAbandonThenAcquire: abandoning the last job of a queued flight
// removes its key in the same critical section, so the next acquire of
// that spec is a miss on a new flight, and a stale forget of the old
// flight leaves the new one alone.
func TestCacheAbandonThenAcquire(t *testing.T) {
	c := newCache(8, NewMetrics(nil))
	spec := Spec{Exhibit: "fig1", Trials: 3}
	j1, _, _ := c.acquire(spec, admitAll, mintJob)
	old := j1.flight
	if got := c.abandon(old); got != detachAborted {
		t.Fatalf("abandon = %v, want detachAborted", got)
	}
	if c.size() != 0 {
		t.Fatalf("abandon left cache size %d, want 0", c.size())
	}
	j2, res, err := c.acquire(spec, admitAll, mintJob)
	if err != nil || res != nil || j2.cache != CacheMiss {
		t.Fatalf("acquire after abandon: job=%+v res=%v err=%v, want a miss", j2, res, err)
	}
	if j2.flight == old {
		t.Fatal("acquire after abandon reused the aborted flight")
	}
	c.forget(old)
	if c.size() != 1 {
		t.Fatalf("stale forget removed the new flight: cache size %d, want 1", c.size())
	}
	if j3, _, _ := c.acquire(spec, admitAll, mintJob); j3.cache != CacheJoined || j3.flight != j2.flight {
		t.Fatalf("third acquire: cache %q, want a join of the new flight", j3.cache)
	}
}

// TestCacheEvictionSkipsInflight: over capacity, only finished results are
// evicted — in-flight entries have jobs attached and must survive.
func TestCacheEvictionSkipsInflight(t *testing.T) {
	m := NewMetrics(nil)
	c := newCache(2, m)
	sFin1 := Spec{Exhibit: "fig1"}
	sFin2 := Spec{Exhibit: "fig2"}
	sLive := Spec{Exhibit: "fig3"}

	j1, _, _ := c.acquire(sFin1, admitAll, mintJob)
	c.complete(j1.flight, &Result{Digest: "1"})
	jLive, _, _ := c.acquire(sLive, admitAll, mintJob)
	j2, _, _ := c.acquire(sFin2, admitAll, mintJob)
	c.complete(j2.flight, &Result{Digest: "2"})

	// Capacity 2, three entries: the LRU finished entry (fig1) goes, the
	// in-flight fig3 stays even though it is older than fig2.
	if c.size() != 2 {
		t.Fatalf("cache size %d, want 2", c.size())
	}
	if _, res, _ := c.acquire(sFin1, func(*flight) error { return ErrSaturated }, mintJob); res != nil {
		t.Fatal("LRU finished entry fig1 survived eviction")
	}
	if j, _, _ := c.acquire(sLive, admitAll, mintJob); j == nil || j.flight != jLive.flight {
		t.Fatal("in-flight entry was evicted")
	}
}

// TestFlightDetachSemantics: detaching the last job aborts a queued flight
// but merely keeps counting while other jobs remain.
func TestFlightDetachSemantics(t *testing.T) {
	now := time.Now()
	fl := &flight{key: "k"}
	j1, j2 := &Job{state: StateQueued}, &Job{state: StateQueued}
	fl.attach(j1)
	fl.attach(j2)
	if got := fl.detach(); got != detachKeep {
		t.Fatalf("first detach = %v, want detachKeep", got)
	}
	if got := fl.detach(); got != detachAborted {
		t.Fatalf("last detach = %v, want detachAborted", got)
	}
	if fl.begin(func(error) {}, now) {
		t.Fatal("begin succeeded on an aborted flight")
	}

	// A running flight's last detach cancels its context instead.
	stopped := false
	fl2 := &flight{key: "k2"}
	fl2.attach(j1)
	if !fl2.begin(func(error) { stopped = true }, now) {
		t.Fatal("begin failed on a live flight")
	}
	if got := fl2.detach(); got != detachStopped {
		t.Fatalf("running detach = %v, want detachStopped", got)
	}
	if !stopped {
		t.Fatal("running flight's stop function was not called")
	}

	// Detach after settle is late: nothing to stop.
	fl3 := &flight{key: "k3"}
	fl3.attach(j1)
	fl3.settle(StateDone, &Result{}, "", now)
	if got := fl3.detach(); got != detachLate {
		t.Fatalf("post-settle detach = %v, want detachLate", got)
	}
}
