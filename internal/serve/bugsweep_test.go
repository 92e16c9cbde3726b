package serve

// The serving-layer bug sweep: regression tests for Retry-After cold
// start and for cancel-vs-join-vs-drain storms.

import (
	"context"
	"errors"
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

// TestPoolCancelDrainStress: submit/cancel storms racing Drain must
// leave no queued flights, no non-terminal jobs, and no wedged workers.
// With one spec whose runs fail (errors are never cached), every
// submission leads or joins a flight on the same key, so joins race the
// last cancel of each flight. Run under -race this doubles as the audit
// of the join/abandon protocol.
func TestPoolCancelDrainStress(t *testing.T) {
	for _, tc := range []struct {
		name  string
		specs int
		fail  bool
	}{{"64 specs", 64, false}, {"1 spec", 1, true}} {
		t.Run(tc.name, func(t *testing.T) { cancelDrainStorm(t, tc.specs, tc.fail) })
	}
}

func cancelDrainStorm(t *testing.T, specs int, fail bool) {
	fast := func(_ context.Context, _ experiments.Config, s Spec) (*Result, error) {
		if fail {
			return nil, errors.New("uncacheable")
		}
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
				v, err := srv.Submit(Spec{Exhibit: "fig1", Trials: rnd.Intn(specs) + 1})
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
