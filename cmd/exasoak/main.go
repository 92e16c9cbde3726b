// Command exasoak hammers a running exaserve with concurrent, retrying
// clients and verifies every answer against locally computed truth. It is
// the measurement half of the chaos story: exaserve -chaos injects
// latency, errors, resets, and worker crashes; exasoak demonstrates that
// the retry + checkpoint/resume machinery converts all of that into
// nothing worse than latency — zero wrong results.
//
//	exaserve -addr 127.0.0.1:8080 -chaos &
//	exasoak -addr 127.0.0.1:8080 -clients 4 -requests 40
//
// Before sending anything, exasoak runs its whole spec vocabulary through
// the experiments registry in-process (mirroring the server's default
// configuration) and records each spec's expected CSV digest. Every
// served result must match; any divergence — or a p99 latency above
// -max-p99, when set — exits non-zero. scripts/chaos_soak.sh wires this
// into CI.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/load"
	"exaresil/internal/rng"
	"exaresil/internal/serve"
	"exaresil/internal/serveclient"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "exasoak:", err)
		os.Exit(1)
	}
}

// vocabulary is the soak's spec mix: cheap exhibits spanning the service's
// behaviors — trial-based and grid-based (checkpointable), repeated specs
// (cache hits and joins), and per-spec seed overrides (distinct cache
// keys).
func vocabulary() []serve.Spec {
	return []serve.Spec{
		{Exhibit: "table1"},
		{Exhibit: "table2"},
		{Exhibit: "fig1", Trials: 2},
		{Exhibit: "fig1", Trials: 3},
		{Exhibit: "fig1", Trials: 2, Seed: 7},
		{Exhibit: "fig4", Patterns: 2, Arrivals: 8},
		{Exhibit: "fig4", Patterns: 2, Arrivals: 8, Seed: 7},
		{Exhibit: "fig4", Patterns: 3, Arrivals: 8},
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("exasoak", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "exaserve base URL")
	clients := fs.Int("clients", 4, "concurrent clients")
	requests := fs.Int("requests", 32, "requests per client")
	seed := fs.Uint64("seed", 1, "spec-mix and jitter seed")
	mix := fs.String("mix", "uniform", "spec mix: uniform, or zipf (rank-skewed draws over the vocabulary)")
	zipfS := fs.Float64("zipf-s", 1.1, "zipf mix exponent (ignored for -mix uniform)")
	attempts := fs.Int("attempts", 10, "max submissions per request (retries + resubmits)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-request deadline")
	maxP99 := fs.Duration("max-p99", 0, "fail when p99 latency exceeds this (0 = report only)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *clients < 1 || *requests < 1 {
		return fmt.Errorf("clients (%d) and requests (%d) must be positive", *clients, *requests)
	}

	vocab := vocabulary()
	// pickSpec maps one uniform draw to a vocabulary index: flat for the
	// uniform mix, rank-skewed through the shared Zipf law for -mix zipf
	// (vocabulary order is the popularity ranking, so the cache-friendly
	// repeated specs soak hottest — the same skew exaload generates).
	var pickSpec func(u float64) int
	switch *mix {
	case "uniform":
		pickSpec = func(u float64) int { return int(u * float64(len(vocab))) }
	case "zipf":
		pop, err := load.NewPopularity(len(vocab), *zipfS)
		if err != nil {
			return fmt.Errorf("-mix zipf: %w", err)
		}
		pickSpec = pop.Rank
	default:
		return fmt.Errorf("unknown -mix %q (want uniform or zipf)", *mix)
	}
	expected, err := expectedDigests(vocab)
	if err != nil {
		return fmt.Errorf("precompute truth: %w", err)
	}
	fmt.Printf("exasoak: %d specs precomputed; %d clients x %d requests (%s mix) against %s\n",
		len(vocab), *clients, *requests, *mix, *addr)

	type sample struct {
		latency time.Duration
		spec    int
		err     error
		wrong   bool
	}
	samples := make([]sample, *clients**requests)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := serveclient.New(*addr, serveclient.Options{
				MaxAttempts: *attempts,
				Seed:        *seed + uint64(c),
			})
			draws := rng.Stream(*seed, uint64(c)+1)
			for i := 0; i < *requests; i++ {
				pick := pickSpec(draws.Float64())
				ctx, cancel := context.WithTimeout(context.Background(), *timeout)
				t0 := time.Now()
				res, err := cl.Run(ctx, vocab[pick])
				cancel()
				s := sample{latency: time.Since(t0), spec: pick, err: err}
				if err == nil && res.Digest != expected[pick] {
					s.wrong = true
				}
				samples[c**requests+i] = s
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats []time.Duration
	var failed, wrong int
	for _, s := range samples {
		switch {
		case s.wrong:
			wrong++
			fmt.Printf("exasoak: WRONG RESULT for %s\n", vocab[s.spec].Canonical())
		case s.err != nil:
			failed++
			fmt.Printf("exasoak: request failed: %v\n", s.err)
		default:
			lats = append(lats, s.latency)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	fmt.Printf("exasoak: %d ok, %d failed, %d wrong in %s\n", len(lats), failed, wrong, elapsed.Round(time.Millisecond))
	if len(lats) > 0 {
		fmt.Printf("exasoak: latency p50 %s  p95 %s  p99 %s  max %s\n",
			pctl(lats, 0.50), pctl(lats, 0.95), pctl(lats, 0.99), lats[len(lats)-1].Round(time.Millisecond))
	}

	if wrong > 0 {
		return fmt.Errorf("%d wrong results — resilience must never corrupt an answer", wrong)
	}
	if failed > 0 {
		return fmt.Errorf("%d requests failed after %d attempts each", failed, *attempts)
	}
	if *maxP99 > 0 && len(lats) > 0 && pctlRaw(lats, 0.99) > *maxP99 {
		return fmt.Errorf("p99 latency %s exceeds the %s budget", pctl(lats, 0.99), *maxP99)
	}
	return nil
}

// expectedDigests runs every vocabulary spec through the experiments
// registry in-process — the same code path the server's default runner
// takes — and records the CSV digests served answers must match.
func expectedDigests(vocab []serve.Spec) ([]string, error) {
	out := make([]string, len(vocab))
	for i, sp := range vocab {
		ex, ok := experiments.Lookup(sp.Exhibit)
		if !ok {
			return nil, fmt.Errorf("vocabulary spec %q not in the registry", sp.Exhibit)
		}
		cfg := experiments.Default()
		if sp.Seed != 0 {
			cfg.Seed = sp.Seed
		}
		t, _, err := ex.Run(cfg, sp.Params())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Canonical(), err)
		}
		var buf bytes.Buffer
		if err := t.WriteCSV(&buf); err != nil {
			return nil, err
		}
		out[i] = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	return out, nil
}

// pctlRaw returns the q-th percentile of sorted latencies.
func pctlRaw(sorted []time.Duration, q float64) time.Duration {
	idx := int(float64(len(sorted))*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// pctl renders a percentile for the report line.
func pctl(sorted []time.Duration, q float64) time.Duration {
	return pctlRaw(sorted, q).Round(time.Millisecond)
}
