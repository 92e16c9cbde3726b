package serveclient

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"exaresil/internal/serve"
)

// fastOpts keeps retry sleeps in the microsecond range so tests that
// exercise many attempts still finish instantly.
func fastOpts() Options {
	return Options{
		Backoff:      Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		PollInterval: time.Millisecond,
	}
}

func digestOf(csv string) string {
	sum := sha256.Sum256([]byte(csv))
	return hex.EncodeToString(sum[:])
}

func writeJSON(t *testing.T, w http.ResponseWriter, status int, v any) {
	t.Helper()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		t.Errorf("encode response: %v", err)
	}
}

func spec(t *testing.T) serve.Spec {
	t.Helper()
	return serve.Spec{Exhibit: "fig1", Trials: 4}
}

// TestRunFirstTry is the happy path: submit answers done immediately (a
// cache hit), the result verifies, no retries happen.
func TestRunFirstTry(t *testing.T) {
	const csv = "pattern,pct\ncoordinated,41.5\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j1", State: "done", Cache: "hit", Digest: digestOf(csv)})
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/j1/result":
			w.Write([]byte(csv))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	res, err := New(srv.URL, fastOpts()).Run(context.Background(), spec(t))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.JobID != "j1" || res.Attempts != 1 || res.Cache != "hit" || string(res.CSV) != csv {
		t.Fatalf("unexpected result: %+v", res)
	}
}

// TestRunRetriesTransientSubmitErrors drives the client through a 500, a
// connection reset and a draining 503 before letting a submit through;
// the 503's Retry-After paces the last retry.
func TestRunRetriesTransientSubmitErrors(t *testing.T) {
	const csv = "a,b\n1,2\n"
	var times []time.Time
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			mu.Lock()
			times = append(times, time.Now())
			n := len(times)
			mu.Unlock()
			switch n {
			case 1:
				http.Error(w, "boom", http.StatusInternalServerError)
			case 2:
				panic(http.ErrAbortHandler) // connection reset
			case 3:
				w.Header().Set("Retry-After", "1")
				http.Error(w, "draining", http.StatusServiceUnavailable)
			default:
				writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j1", State: "done", Cache: "miss", Digest: digestOf(csv)})
			}
		case r.URL.Path == "/v1/jobs/j1/result":
			w.Write([]byte(csv))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	res, err := New(srv.URL, fastOpts()).Run(context.Background(), spec(t))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Attempts != 4 {
		t.Fatalf("Attempts = %d, want 4 (three transient failures)", res.Attempts)
	}
	mu.Lock()
	defer mu.Unlock()
	if gap := times[3].Sub(times[2]); gap < 900*time.Millisecond {
		t.Fatalf("retry after the 503 arrived after %v; Retry-After: 1 demands ~1s", gap)
	}
}

// TestRunHonorsRetryAfter checks that a 429's Retry-After header, not
// the (tiny) backoff schedule, paces the retry: the second submit must
// not arrive before the requested pause elapses.
func TestRunHonorsRetryAfter(t *testing.T) {
	const csv = "a\n1\n"
	var mu sync.Mutex
	var times []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			mu.Lock()
			times = append(times, time.Now())
			n := len(times)
			mu.Unlock()
			if n == 1 {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "saturated", http.StatusTooManyRequests)
				return
			}
			writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j1", State: "done", Digest: digestOf(csv)})
		case r.URL.Path == "/v1/jobs/j1/result":
			w.Write([]byte(csv))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	if _, err := New(srv.URL, fastOpts()).Run(context.Background(), spec(t)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(times) != 2 {
		t.Fatalf("saw %d submits, want 2", len(times))
	}
	if gap := times[1].Sub(times[0]); gap < 900*time.Millisecond {
		t.Fatalf("retry arrived after %v; Retry-After: 1 demands ~1s", gap)
	}
}

// TestRunResubmitsFailedJob: a job that lands failed (e.g. an injected
// crash) is resubmitted, and the retry succeeds.
func TestRunResubmitsFailedJob(t *testing.T) {
	const csv = "x\n9\n"
	var mu sync.Mutex
	var submits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			mu.Lock()
			submits++
			n := submits
			mu.Unlock()
			if n == 1 {
				writeJSON(t, w, http.StatusAccepted, serve.JobView{ID: "j1", State: "queued"})
				return
			}
			writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j2", State: "done", Cache: "miss", Digest: digestOf(csv)})
		case r.URL.Path == "/v1/jobs/j1":
			writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j1", State: "failed", Error: "injected worker crash"})
		case r.URL.Path == "/v1/jobs/j2/result":
			w.Write([]byte(csv))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	res, err := New(srv.URL, fastOpts()).Run(context.Background(), spec(t))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.JobID != "j2" || res.Attempts != 2 {
		t.Fatalf("got job %s after %d attempts, want j2 after 2", res.JobID, res.Attempts)
	}
}

// TestRunResubmitsVanishedJob: a 404 while polling (job evicted from the
// bounded store) triggers a fresh submission instead of an error.
func TestRunResubmitsVanishedJob(t *testing.T) {
	const csv = "y\n3\n"
	var mu sync.Mutex
	var submits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			mu.Lock()
			submits++
			n := submits
			mu.Unlock()
			if n == 1 {
				writeJSON(t, w, http.StatusAccepted, serve.JobView{ID: "gone", State: "queued"})
				return
			}
			writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j2", State: "done", Digest: digestOf(csv)})
		case r.URL.Path == "/v1/jobs/gone":
			http.NotFound(w, r)
		case r.URL.Path == "/v1/jobs/j2/result":
			w.Write([]byte(csv))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	res, err := New(srv.URL, fastOpts()).Run(context.Background(), spec(t))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", res.Attempts)
	}
}

// TestRunPollsToCompletion walks a job through queued → running → done.
func TestRunPollsToCompletion(t *testing.T) {
	const csv = "z\n7\n"
	var mu sync.Mutex
	var polls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			writeJSON(t, w, http.StatusAccepted, serve.JobView{ID: "j1", State: "queued"})
		case r.URL.Path == "/v1/jobs/j1":
			mu.Lock()
			polls++
			n := polls
			mu.Unlock()
			switch {
			case n == 1:
				writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j1", State: "running"})
			default:
				writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j1", State: "done", Cache: "miss", Digest: digestOf(csv)})
			}
		case r.URL.Path == "/v1/jobs/j1/result":
			w.Write([]byte(csv))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	res, err := New(srv.URL, fastOpts()).Run(context.Background(), spec(t))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Attempts != 1 || string(res.CSV) != csv {
		t.Fatalf("unexpected result: %+v", res)
	}
}

// TestRunRejectsCorruptResult: a CSV whose hash disagrees with the
// advertised digest is a permanent error — never retried, never returned
// as data.
func TestRunRejectsCorruptResult(t *testing.T) {
	var mu sync.Mutex
	var submits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			mu.Lock()
			submits++
			mu.Unlock()
			writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j1", State: "done", Digest: digestOf("the real bytes")})
		case r.URL.Path == "/v1/jobs/j1/result":
			w.Write([]byte("tampered bytes"))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	_, err := New(srv.URL, fastOpts()).Run(context.Background(), spec(t))
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Run error = %v, want digest-mismatch failure", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if submits != 1 {
		t.Fatalf("permanent error retried: %d submits", submits)
	}
}

// TestRunBadSpecIsPermanent: a 400 is returned immediately, unretried.
func TestRunBadSpecIsPermanent(t *testing.T) {
	var mu sync.Mutex
	var submits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		submits++
		mu.Unlock()
		http.Error(w, `{"error":"unknown exhibit"}`, http.StatusBadRequest)
	}))
	defer srv.Close()

	_, err := New(srv.URL, fastOpts()).Run(context.Background(), spec(t))
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("Run error = %v, want submit-rejected failure", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if submits != 1 {
		t.Fatalf("permanent 400 retried: %d submits", submits)
	}
}

// TestRunDeadlinePropagates: a context deadline cuts through backoff
// sleeps and surfaces as the returned error.
func TestRunDeadlinePropagates(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	opts := fastOpts()
	opts.Backoff = Backoff{Base: 50 * time.Millisecond, Max: time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := New(srv.URL, opts).Run(ctx, spec(t))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run error = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline ignored for %v", elapsed)
	}
}

// TestRunExhaustsAttempts: with the server permanently down, Run stops
// at MaxAttempts and reports the last failure.
func TestRunExhaustsAttempts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	opts := fastOpts()
	opts.MaxAttempts = 3
	_, err := New(srv.URL, opts).Run(context.Background(), spec(t))
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("Run error = %v, want attempt exhaustion", err)
	}
}
