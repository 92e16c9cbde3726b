package serveclient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"exaresil/internal/serve"
)

// TestIssueOK: submit answers done immediately (a cache hit); Issue
// classifies ok without any polling or retry.
func TestIssueOK(t *testing.T) {
	var submits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			submits.Add(1)
			writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j1", State: "done", Cache: "hit"})
			return
		}
		http.NotFound(w, r)
	}))
	defer srv.Close()
	c := New(srv.URL, fastOpts())
	res := c.Issue(context.Background(), spec(t))
	if res.Class != IssueOK || res.JobID != "j1" || res.Cache != "hit" {
		t.Fatalf("got %+v, want ok/j1/hit", res)
	}
	if n := submits.Load(); n != 1 {
		t.Fatalf("server saw %d submits, want exactly 1", n)
	}
}

// TestIssuePollsToTerminal: an admitted job is polled through queued and
// running to done.
func TestIssuePollsToTerminal(t *testing.T) {
	states := []string{"queued", "running", "done"}
	var polls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			writeJSON(t, w, http.StatusAccepted, serve.JobView{ID: "j1", State: "queued", Cache: "miss"})
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/j1":
			i := polls.Add(1)
			if int(i) > len(states) {
				i = int64(len(states))
			}
			writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j1", State: states[i-1], Cache: "miss"})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	c := New(srv.URL, fastOpts())
	res := c.Issue(context.Background(), spec(t))
	if res.Class != IssueOK || res.Cache != "miss" {
		t.Fatalf("got %+v, want ok/miss", res)
	}
	if res.Latency <= 0 {
		t.Errorf("latency %v, want positive", res.Latency)
	}
}

// TestIssueNeverRetries is the open-loop contract: whatever the server
// answers at submit, the server sees exactly one POST per Issue call.
func TestIssueNeverRetries(t *testing.T) {
	cases := []struct {
		name      string
		status    int
		wantClass string
	}{
		{"saturated", http.StatusTooManyRequests, IssueRejected},
		{"draining", http.StatusServiceUnavailable, IssueUnavailable},
		{"server error", http.StatusInternalServerError, IssueError},
		{"bad spec", http.StatusBadRequest, IssueError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var submits atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				submits.Add(1)
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(tc.status)
			}))
			defer srv.Close()
			c := New(srv.URL, fastOpts())
			res := c.Issue(context.Background(), spec(t))
			if res.Class != tc.wantClass {
				t.Fatalf("HTTP %d classified %q, want %q", tc.status, res.Class, tc.wantClass)
			}
			if res.Err == nil {
				t.Error("non-ok classes must carry the underlying error")
			}
			if n := submits.Load(); n != 1 {
				t.Fatalf("server saw %d submits, want exactly 1 (Issue must not retry)", n)
			}
			if (tc.status == http.StatusTooManyRequests || tc.status == http.StatusServiceUnavailable) &&
				res.RetryAfter != time.Second {
				t.Errorf("RetryAfter = %v, want 1s from the header", res.RetryAfter)
			}
		})
	}
}

// TestIssueFailedJob: an admitted job that terminates failed classifies
// failed, not error.
func TestIssueFailedJob(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			writeJSON(t, w, http.StatusAccepted, serve.JobView{ID: "j1", State: "queued"})
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/j1":
			writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j1", State: "failed", Error: "boom"})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	c := New(srv.URL, fastOpts())
	res := c.Issue(context.Background(), spec(t))
	if res.Class != IssueFailed {
		t.Fatalf("got %q, want %q", res.Class, IssueFailed)
	}
}

// TestIssueVanishedJob: a 404 while polling (store eviction) is failed —
// the request's fate is known, just not its result.
func TestIssueVanishedJob(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			writeJSON(t, w, http.StatusAccepted, serve.JobView{ID: "j1", State: "queued"})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	c := New(srv.URL, fastOpts())
	res := c.Issue(context.Background(), spec(t))
	if res.Class != IssueFailed {
		t.Fatalf("got %q, want %q", res.Class, IssueFailed)
	}
}
