// Command exasim regenerates every table and figure of "An Analysis of
// Resilience Techniques for Exascale Computing Platforms" (IPDPSW 2017)
// from the exaresil simulation library.
//
// Usage:
//
//	exasim [flags] <exhibit>...
//
// where each exhibit is one of: table1, table2, fig1, fig2, fig3, fig4,
// fig5, or all (every paper exhibit); or one of the extension studies:
// ext-energy, ext-mtbf, ext-weibull, ext-backfill, ext-selectors, ext-tau, or
// ext-all. With no exhibit arguments, "all" is assumed.
//
// Flags:
//
//	-trials N     Monte-Carlo trials per bar in fig1-3 (default 200, as
//	              in the paper)
//	-patterns N   arrival patterns per cell in fig4-5 (default 50)
//	-seed N       master random seed (default the paper-epoch constant)
//	-csv DIR      additionally write each exhibit as DIR/<name>.csv
//	-chart        additionally render figures as ASCII bar charts
//	-metrics F    collect simulation metrics across the whole run and
//	              write them to F on exit — Prometheus text exposition
//	              format, or a JSON snapshot when F ends in .json
//	              ("-" writes to stdout)
//	-workers N    worker goroutines (default all CPUs)
//	-cpuprofile F write a pprof CPU profile of the whole run to F
//	-memprofile F write a pprof allocation profile to F on exit
//
// Profiles are analyzed with the standard toolchain, e.g.
// `go tool pprof exasim cpu.out`.
//
// Each exhibit's wall time is printed to stderr, so stdout is the same
// bytes on every run at a fixed seed (results/full_run.txt is that output).
//
// The whole invocation is validated before any exhibit runs: unknown
// exhibit names, non-positive -trials/-patterns, and -metrics paths with
// an unsupported extension are usage errors and exit 2 immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/obs"
	"exaresil/internal/report"
)

// usageError marks a command-line mistake caught before any work starts:
// the process exits 2 with a usage hint instead of failing mid-run.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return usageError{msg: fmt.Sprintf(format, args...)}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "exasim: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			fmt.Fprintf(os.Stderr, "usage: exasim [flags] <exhibit>...\nrun 'exasim -h' for flag help\n")
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// validMetricsPath reports whether -metrics points somewhere writeMetrics
// understands: stdout ("-"), a JSON snapshot (.json), or the Prometheus
// text exposition format (.prom, .txt, or no extension).
func validMetricsPath(path string) bool {
	if path == "-" {
		return true
	}
	switch filepath.Ext(path) {
	case "", ".json", ".prom", ".txt":
		return true
	default:
		return false
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("exasim", flag.ContinueOnError)
	trials := fs.Int("trials", 200, "Monte-Carlo trials per bar (figures 1-3)")
	patterns := fs.Int("patterns", 50, "arrival patterns per cell (figures 4-5)")
	seed := fs.Uint64("seed", 0, "master random seed (0 = default)")
	csvDir := fs.String("csv", "", "directory to write CSV copies of each exhibit")
	chart := fs.Bool("chart", false, "render figures as ASCII bar charts too")
	metricsPath := fs.String("metrics", "", "write run metrics to this file (Prometheus text; JSON if it ends in .json; - for stdout)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all CPUs)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Validate the whole invocation before any exhibit runs: a typo in the
	// last exhibit name must not cost a full regeneration of the first.
	if *trials <= 0 {
		return usagef("-trials must be positive, got %d", *trials)
	}
	if *patterns <= 0 {
		return usagef("-patterns must be positive, got %d", *patterns)
	}
	if *workers < 0 {
		return usagef("-workers must be non-negative, got %d", *workers)
	}
	if *metricsPath != "" && !validMetricsPath(*metricsPath) {
		return usagef("-metrics %s: unsupported extension %s (want .json, .prom, .txt, no extension, or -)",
			*metricsPath, filepath.Ext(*metricsPath))
	}
	expanded, err := experiments.ExpandNames(fs.Args())
	if err != nil {
		return usageError{msg: err.Error()}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "exasim: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "exasim: memprofile: %v\n", err)
			}
		}()
	}

	cfg := experiments.Default()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers
	if *metricsPath != "" {
		cfg.Obs = obs.NewRegistry()
	}

	for _, name := range expanded {
		start := time.Now()
		t, ch, err := exhibit(name, cfg, *trials, *patterns)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		if *chart && ch != nil {
			fmt.Println()
			ch.Render(os.Stdout)
		}
		fmt.Println()
		fmt.Fprintf(os.Stderr, "(%s regenerated in %v)\n", name, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(t, *csvDir, name); err != nil {
				return err
			}
		}
	}
	if *metricsPath != "" {
		if err := writeMetrics(cfg.Obs, *metricsPath); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	return nil
}

// writeMetrics dumps the run's registry: Prometheus text exposition by
// default, a JSON snapshot when the path ends in .json, stdout for "-".
func writeMetrics(r *obs.Registry, path string) error {
	var w *os.File
	if path == "-" {
		w = os.Stdout
	} else {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if strings.HasSuffix(path, ".json") {
		if err := r.WriteJSON(w); err != nil {
			return err
		}
	} else if err := r.WriteProm(w); err != nil {
		return err
	}
	if path != "-" {
		fmt.Printf("(metrics written to %s)\n", path)
		return w.Close()
	}
	return nil
}

// scalingChart draws a Figure 1/2/3 data set as grouped bars.
func scalingChart(res experiments.ScalingResult) *report.BarChart {
	c := report.NewBarChart("", "efficiency")
	c.Max = 1
	seen := map[float64]bool{}
	for _, p := range res.Points {
		if seen[p.Fraction] {
			continue
		}
		seen[p.Fraction] = true
		var bars []report.Bar
		for _, q := range res.Points {
			if q.Fraction == p.Fraction {
				bars = append(bars, report.Bar{
					Label: q.Technique.String(),
					Value: q.Efficiency.Mean,
					Err:   q.Efficiency.StdDev,
				})
			}
		}
		c.AddGroup(fmt.Sprintf("%g%% of the machine", 100*p.Fraction), bars...)
	}
	return c
}

// clusterChart draws a Figure 4-style data set as grouped bars.
func clusterChart(res experiments.ClusterResult) *report.BarChart {
	c := report.NewBarChart("", "% dropped")
	c.Max = 100
	seen := map[string]bool{}
	for _, cell := range res.Cells {
		key := cell.Scheduler.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		var bars []report.Bar
		for _, q := range res.Cells {
			if q.Scheduler == cell.Scheduler {
				bars = append(bars, report.Bar{
					Label: q.Technique.String(),
					Value: q.Dropped.Mean,
					Err:   q.Dropped.StdDev,
				})
			}
		}
		c.AddGroup(key, bars...)
	}
	return c
}

// exhibit resolves one exhibit name through the shared registry and builds
// its chart. The chart is non-nil for exhibits with a natural bar
// rendering.
func exhibit(name string, cfg experiments.Config, trials, patterns int) (*report.Table, *report.BarChart, error) {
	ex, ok := experiments.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown exhibit %q", name)
	}
	t, res, err := ex.Run(cfg, experiments.Params{Trials: trials, Patterns: patterns})
	if err != nil {
		return nil, nil, err
	}
	switch ex.Chart {
	case experiments.ChartScaling:
		return t, scalingChart(res.(experiments.ScalingResult)), nil
	case experiments.ChartCluster:
		return t, clusterChart(res.(experiments.ClusterResult)), nil
	default:
		return t, nil, nil
	}
}

// writeCSV writes the exhibit's CSV companion file.
func writeCSV(t *report.Table, dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("(csv written to %s)\n\n", path)
	return f.Close()
}
