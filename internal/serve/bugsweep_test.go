package serve

// The serving-layer bug sweep: regression tests for Retry-After cold
// start, the single-flight join-after-abort race, and cancel-vs-drain
// storms.

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"exaresil/internal/experiments"
)

// TestRetryAfterColdStartFloor: before any execution has completed the
// EWMA is empty, and the Retry-After estimate must be floored at 1s — a
// 429 storm on a freshly booted server must never tell clients "retry
// now". Tiny samples stay floored; huge ones clamp at 120.
func TestRetryAfterColdStartFloor(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 4, Runner: newBlockingRunner(false).run})
	if got := srv.RetryAfterSeconds(); got != 1 {
		t.Fatalf("cold-start RetryAfterSeconds = %d, want 1", got)
	}
	srv.noteJobSeconds(1e-9)
	if got := srv.RetryAfterSeconds(); got != 1 {
		t.Fatalf("tiny-sample RetryAfterSeconds = %d, want floor 1", got)
	}
	srv.noteJobSeconds(1e9)
	if got := srv.RetryAfterSeconds(); got != 120 {
		t.Fatalf("huge-sample RetryAfterSeconds = %d, want clamp 120", got)
	}
}

// TestRetryAfterTracksActiveWidth: the 429 pacing estimate divides the
// queued work by the pool width, so twice the workers halve the advice.
func TestRetryAfterTracksActiveWidth(t *testing.T) {
	for _, c := range []struct{ workers, want int }{{1, 10}, {2, 5}} {
		srv, _ := newTestServer(t, Config{Workers: c.workers, Runner: newBlockingRunner(false).run})
		srv.noteJobSeconds(10) // seed the execution EWMA: 10s per job
		if got := srv.RetryAfterSeconds(); got != c.want {
			t.Errorf("RetryAfter at %d workers = %d, want %d", c.workers, got, c.want)
		}
	}
}

// TestDeadFlightReplacedOnAcquire: the join-after-abort race. A flight
// whose last subscriber canceled (detach → aborted) but whose cancel
// path has not yet swept the cache must not be joinable — attach refuses
// it and acquire evicts it in favor of a fresh flight. Before the fix a
// submission landing in that window joined the corpse and hung forever.
func TestDeadFlightReplacedOnAcquire(t *testing.T) {
	now := time.Now()
	c := newCache(8, NewMetrics(nil))
	spec := Spec{Exhibit: "fig1", Trials: 3}

	_, fl1, created, err := c.acquire(spec, admitAll)
	if err != nil || !created {
		t.Fatalf("first acquire: created=%v err=%v", created, err)
	}
	fl1.attach(&Job{state: StateQueued}, now)
	if got := fl1.detach(); got != detachAborted {
		t.Fatalf("detach = %v, want detachAborted", got)
	}

	// The cancel path's forget/discard have NOT run yet: this is the race
	// window. Joining must be refused…
	if got := fl1.attach(&Job{state: StateQueued}, now); got != attachDead {
		t.Fatalf("attach to aborted queued flight = %v, want attachDead", got)
	}
	// …and acquire must evict the corpse and lead a fresh flight.
	_, fl2, created2, err := c.acquire(spec, admitAll)
	if err != nil || !created2 {
		t.Fatalf("acquire over dead flight: created=%v err=%v, want fresh flight", created2, err)
	}
	if fl2 == fl1 {
		t.Fatal("acquire joined the dead flight")
	}
	// The cancel path's late forget of the corpse must not evict the
	// replacement.
	c.forget(fl1)
	if c.size() != 1 {
		t.Fatalf("late forget removed the replacement: cache size %d, want 1", c.size())
	}
}

// TestSubmitSurvivesCancelRace: server-level version of the same race.
// Submit must detect the stillborn attach, discard the job, and retry
// with a fresh flight that completes normally.
func TestSubmitSurvivesCancelRace(t *testing.T) {
	br := newBlockingRunner(false)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Runner: br.run})

	vA, err := srv.Submit(Spec{Exhibit: "fig1", Trials: 1})
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	br.waitStart(t) // A occupies the only worker
	specB := Spec{Exhibit: "fig1", Trials: 2}
	vB, err := srv.Submit(specB)
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}

	// Freeze the cancel mid-window: terminal job + detached flight, but
	// no forget/discard yet — exactly the interleaving handleCancel can
	// be preempted in.
	jB, ok := srv.store.get(vB.ID)
	if !ok {
		t.Fatalf("job %s missing", vB.ID)
	}
	jB.finish(StateCanceled, nil, "canceled by client", time.Now())
	if got := jB.flight.detach(); got != detachAborted {
		t.Fatalf("detach = %v, want detachAborted", got)
	}

	vB2, err := srv.Submit(specB)
	if err != nil {
		t.Fatalf("submit into the race window: %v", err)
	}
	if vB2.Cache != CacheMiss {
		t.Fatalf("resubmission cache status %q, want %q (fresh flight, not the corpse)", vB2.Cache, CacheMiss)
	}

	br.unblock()
	if done := pollTerminal(t, ts, vB2.ID); done.State != "done" {
		t.Fatalf("resubmitted job ended %s: %s", done.State, done.Error)
	}
	if done := pollTerminal(t, ts, vA.ID); done.State != "done" {
		t.Fatalf("job A ended %s: %s", done.State, done.Error)
	}
}

// TestPoolCancelDrainStress: submit/cancel storms racing Drain must
// leave no queued flights, no non-terminal jobs, and no wedged workers.
// Run under -race this doubles as the pool's concurrency audit.
func TestPoolCancelDrainStress(t *testing.T) {
	fast := func(_ context.Context, _ experiments.Config, s Spec) (*Result, error) {
		return &Result{CSV: []byte(s.Canonical() + "\n"), Text: s.Canonical(), Digest: s.Key()}, nil
	}
	srv, _ := newTestServer(t, Config{Workers: 4, QueueDepth: 8, StoreSize: 8192, Runner: fast})

	const goroutines, perG = 8, 200
	ids := make(chan string, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				v, err := srv.Submit(Spec{Exhibit: "fig1", Trials: rnd.Intn(64) + 1})
				if err != nil {
					continue // ErrSaturated/ErrDraining are expected under the storm
				}
				ids <- v.ID
				if rnd.Intn(2) == 0 {
					_, _ = srv.CancelJob(v.ID)
				}
			}
		}(g)
	}

	// Drain races the storm: submissions behind the drain get
	// ErrDraining, cancels keep walking the shard deques while drain
	// closes them.
	time.Sleep(time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain under storm: %v", err)
	}
	wg.Wait()
	close(ids)

	if q := srv.Health().Queued; q != 0 {
		t.Fatalf("%d flights still queued after drain", q)
	}
	if n := srv.Inflight(); n != 0 {
		t.Fatalf("%d flights still inflight after drain", n)
	}
	for id := range ids {
		v, ok := srv.Job(id)
		if !ok {
			continue // evicted terminal job
		}
		switch v.State {
		case "done", "failed", "canceled":
		default:
			t.Fatalf("job %s stuck %s after drain", id, v.State)
		}
	}
}
