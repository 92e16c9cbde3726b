// Command exaserve runs the simulation service: the exasim exhibits behind
// an HTTP job API with a bounded worker pool, single-flight result cache,
// and backpressure (429 + Retry-After when the queue is full).
//
// Submit, poll, fetch:
//
//	exaserve -addr 127.0.0.1:8080 &
//	curl -s -d '{"exhibit":"fig4","patterns":6}' localhost:8080/v1/jobs
//	curl -s localhost:8080/v1/jobs/j00000001
//	curl -s localhost:8080/v1/jobs/j00000001/result
//
// SIGINT/SIGTERM drains: admission stops (503), every queued and running
// job finishes, then the listener closes.
//
// The -chaos flag arms the internal/chaos fault injector: seeded random
// latency, synthetic 500s, connection resets, and mid-job worker crashes,
// tuned by the -chaos-* flags and counted in
// exaresil_chaos_injected_total{fault=...}. Crashed jobs fail but leave a
// checkpoint snapshot behind; resubmitting the same spec resumes from it
// (see DESIGN.md §10 and scripts/chaos_soak.sh).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"exaresil/internal/chaos"
	"exaresil/internal/experiments"
	"exaresil/internal/obs"
	"exaresil/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "exaserve:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("exaserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	workers := fs.Int("workers", defaultWorkers(), "worker pool width (concurrent experiment runs)")
	queue := fs.Int("queue", 0, "total queued-job slots across workers (0 = 2x workers)")
	cacheSize := fs.Int("cache", 128, "result cache capacity (finished results)")
	storeSize := fs.Int("store", 1024, "job store capacity (oldest finished jobs age out)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job execution timeout (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 60*time.Second, "max time to finish in-flight jobs on shutdown")
	simWorkers := fs.Int("sim-workers", 1, "simulation workers inside each job (results are identical at any width)")
	seed := fs.Uint64("seed", 0, "base experiment seed override (0 = paper default; per-spec seeds still apply)")
	snapshots := fs.Int("snapshots", 0, "checkpoint snapshots retained for interrupted jobs (0 = 64)")
	chaosOn := fs.Bool("chaos", false, "arm the fault injector (see the chaos-* flags)")
	chaosSeed := fs.Uint64("chaos-seed", 1, "chaos decision-stream seed")
	chaosLatencyRate := fs.Float64("chaos-latency-rate", 0.1, "fraction of requests delayed")
	chaosLatency := fs.Duration("chaos-latency", 50*time.Millisecond, "injected request delay")
	chaosErrorRate := fs.Float64("chaos-error-rate", 0.05, "fraction of requests answered with a synthetic 500")
	chaosResetRate := fs.Float64("chaos-reset-rate", 0.05, "fraction of requests whose connection is reset")
	chaosCrashRate := fs.Float64("chaos-crash-rate", 0.2, "fraction of job executions crashed mid-run")
	chaosCrashCells := fs.Int("chaos-crash-cells", 3, "max grid cells a crashed execution completes first")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	reg := obs.NewRegistry()
	ecfg := experiments.Default()
	if *seed != 0 {
		ecfg.Seed = *seed
	}
	ecfg.Workers = *simWorkers

	var inj *chaos.Injector
	if *chaosOn {
		var err error
		inj, err = chaos.New(chaos.Config{
			Seed:        *chaosSeed,
			LatencyRate: *chaosLatencyRate,
			Latency:     *chaosLatency,
			ErrorRate:   *chaosErrorRate,
			ResetRate:   *chaosResetRate,
			CrashRate:   *chaosCrashRate,
			CrashCells:  *chaosCrashCells,
		}, reg)
		if err != nil {
			return err
		}
	}

	scfg := serve.Config{
		Experiments:  ecfg,
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheSize:    *cacheSize,
		StoreSize:    *storeSize,
		JobTimeout:   *jobTimeout,
		SnapshotSize: *snapshots,
		Obs:          reg,
	}
	if inj != nil {
		scfg.CrashHook = inj.Crash
	}

	srv, err := serve.New(scfg)
	if err != nil {
		return err
	}
	handler := srv.Handler()
	if inj != nil {
		handler = inj.Middleware(handler)
		log.Printf("exaserve: chaos armed (seed %d: latency %.0f%%/%s, error %.0f%%, reset %.0f%%, crash %.0f%% after <=%d cells)",
			*chaosSeed, 100**chaosLatencyRate, *chaosLatency, 100**chaosErrorRate, 100**chaosResetRate,
			100**chaosCrashRate, *chaosCrashCells)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler}
	h := srv.Health()
	log.Printf("exaserve: listening on http://%s (%d workers, %d queue slots)",
		ln.Addr(), h.Workers, h.QueueCapacity)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case sig := <-sigc:
		log.Printf("exaserve: %s received, draining in-flight jobs", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("exaserve: drain: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("exaserve: drained, goodbye")
	return nil
}

// defaultWorkers sizes the pool to the host without oversubscribing small
// containers.
func defaultWorkers() int {
	n := runtime.NumCPU() / 2
	if n < 1 {
		n = 1
	}
	if n > 8 {
		n = 8
	}
	return n
}
