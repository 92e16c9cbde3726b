package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/obs"
	"exaresil/internal/serve"
)

// fakeResult is a result whose digest matches its bytes unless corrupt.
func fakeResult(s serve.Spec, corrupt bool) *serve.Result {
	csv := []byte(fmt.Sprintf("exhibit,trials,seed\n%s,%d,%d\n", s.Exhibit, s.Trials, s.Seed))
	sum := sha256.Sum256(csv)
	d := hex.EncodeToString(sum[:])
	if corrupt {
		d = "00" + d[2:]
	}
	return &serve.Result{CSV: csv, Digest: d}
}

// fakeServer serves cfg in-process until the test ends.
func fakeServer(t *testing.T, cfg serve.Config) string {
	t.Helper()
	cfg.Obs = obs.NewRegistry()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return ts.URL
}

// TestClientDispositions drives the benchmark's client against an
// in-process server with one worker and one queue slot: a miss, a hit,
// a refused submission and a result whose bytes do not match its digest.
func TestClientDispositions(t *testing.T) {
	blocked := serve.Spec{Exhibit: "fig1", Trials: 2, Seed: 1}
	corrupt := serve.Spec{Exhibit: "fig1", Trials: 2, Seed: 4}
	started, release := make(chan struct{}), make(chan struct{})
	c := newClient(fakeServer(t, serve.Config{
		Workers: 1, QueueDepth: 1, CacheSize: 8,
		Runner: func(ctx context.Context, _ experiments.Config, s serve.Spec) (*serve.Result, error) {
			if s == blocked {
				close(started)
				<-release
			}
			return fakeResult(s, s == corrupt), nil
		},
	}), nil)

	first := make(chan outcome)
	go func() { first <- c.do(blocked) }()
	<-started // the worker is busy with blocked
	queued := serve.Spec{Exhibit: "fig1", Trials: 2, Seed: 2}
	body := `{"exhibit":"fig1","trials":2,"seed":2}`
	if code, _, err := c.call("submit", http.MethodPost, "/v1/jobs", []byte(body), 0, 0); err != nil || code != http.StatusAccepted {
		t.Fatalf("queueing %+v: status %d, %v", queued, code, err)
	}
	refused := c.do(serve.Spec{Exhibit: "fig1", Trials: 2, Seed: 3})
	if refused.disp != "rejected" || !math.IsInf(refused.latencyMS(), 1) {
		t.Errorf("submission past a full queue: %s, latency %g; want rejected, +Inf", refused.disp, refused.latencyMS())
	}
	close(release)
	if o := <-first; o.disp != serve.CacheMiss || o.polls == 0 || math.IsNaN(o.exec) || o.exec < 0 {
		t.Errorf("first request: %+v; want a polled miss with an execution time", o)
	}
	if o := c.do(blocked); o.disp != serve.CacheHit || o.polls != 0 {
		t.Errorf("repeat request: %+v; want an unpolled hit", o)
	}
	if o := c.do(corrupt); o.disp != "wrong" || !math.IsInf(o.latencyMS(), 1) {
		t.Errorf("result not matching its digest: %s; want wrong", o.disp)
	}
}

func TestClientChecksGoldenPins(t *testing.T) {
	spec := serve.Spec{Exhibit: "fig1", Trials: 20}
	url := fakeServer(t, serve.Config{
		Workers: 1,
		Runner: func(ctx context.Context, _ experiments.Config, s serve.Spec) (*serve.Result, error) {
			return fakeResult(s, false), nil
		},
	})
	right := fakeResult(spec, false).Digest
	if o := newClient(url, map[serve.Spec]string{spec: right}).do(spec); !o.ok() {
		t.Errorf("pinned spec with its pinned digest: %s", o.disp)
	}
	if o := newClient(url, map[serve.Spec]string{spec: "beef"}).do(spec); o.disp != "wrong" {
		t.Errorf("pinned spec off its pinned digest: %s; want wrong", o.disp)
	}
}
