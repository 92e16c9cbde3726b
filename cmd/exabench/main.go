// Command exabench runs the repository's benchmarks through
// testing.Benchmark and writes a machine-readable summary so performance
// regressions can be tracked between commits without parsing `go test
// -bench` text output.
//
// Usage:
//
//	exabench [flags]
//
// Flags:
//
//	-out FILE      where to write the JSON summary (default BENCH_results.json)
//	-run NAME      run only benchmarks whose name contains NAME
//	-list          print the benchmark names and exit
//	-commit REV    stamp the report with a source revision, e.g.
//	               -commit "$(git rev-parse --short HEAD)"
//	-baseline FILE compare against a previous report: print benchstat-style
//	               ns/op, B/op, and allocs/op deltas per benchmark and exit
//	               non-zero if any benchmark regressed by more than 10% in
//	               time or allocations
//
// exhibitBenches is the repository's one benchmark list: every table and
// figure at a reduced statistical scale (benchmarks measure harness cost,
// not paper numbers), the unit runs they multiply, and the design
// ablations. `go test -bench . -benchmem ./cmd/exabench` runs the same
// list as sub-benchmarks of BenchmarkExabench. Each entry reports ns/op,
// bytes/op, and allocs/op. The JSON schema:
//
//	{
//	  "go_version": "go1.24.x",
//	  "gomaxprocs": 8,
//	  "commit": "7a8911d",
//	  "date": "2026-01-02T15:04:05Z",
//	  "results": [
//	    {"name": "fig1", "iterations": 18, "ns_per_op": 6.1e7,
//	     "bytes_per_op": 29000000, "allocs_per_op": 700000},
//	    ...
//	  ]
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"exaresil"
	"exaresil/internal/analytic"
	"exaresil/internal/core"
	"exaresil/internal/experiments"
	"exaresil/internal/obs"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/selection"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// benchResult is one benchmark's summary line.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchReport is the file-level schema.
type benchReport struct {
	GoVersion  string        `json:"go_version"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Commit     string        `json:"commit,omitempty"`
	Date       string        `json:"date,omitempty"`
	Results    []benchResult `json:"results"`
}

// bench names one benchmark.
type bench struct {
	name string
	fn   func(b *testing.B)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "exabench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("exabench", flag.ContinueOnError)
	out := fs.String("out", "BENCH_results.json", "output JSON file")
	match := fs.String("run", "", "run only benchmarks whose name contains this substring")
	list := fs.Bool("list", false, "list benchmark names and exit")
	commit := fs.String("commit", "", "source revision to stamp into the report")
	baseline := fs.String("baseline", "", "previous report to diff against (non-zero exit on >10% regression)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	benches := exhibitBenches()
	if *list {
		for _, b := range benches {
			fmt.Println(b.name)
		}
		return nil
	}

	var base *benchReport
	if *baseline != "" {
		var err error
		if base, err = readReport(*baseline); err != nil {
			return fmt.Errorf("reading baseline: %w", err)
		}
	}

	report := benchReport{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Commit:     *commit,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	for _, b := range benches {
		if *match != "" && !strings.Contains(b.name, *match) {
			continue
		}
		fmt.Fprintf(os.Stderr, "exabench: running %s...\n", b.name)
		r := testing.Benchmark(b.fn)
		res := benchResult{
			Name:        b.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		report.Results = append(report.Results, res)
		fmt.Printf("%-24s %12d ns/op %12d B/op %10d allocs/op",
			b.name, int64(res.NsPerOp), res.BytesPerOp, res.AllocsPerOp)
		if eff, ok := r.Extra["efficiency"]; ok {
			fmt.Printf(" %8.4f efficiency", eff)
		}
		fmt.Println()
	}
	if len(report.Results) == 0 {
		return fmt.Errorf("no benchmarks matched %q", *match)
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "exabench: wrote %s\n", *out)
	if err := f.Close(); err != nil {
		return err
	}
	if base != nil {
		return diffReports(base, report)
	}
	return nil
}

// readReport loads a previously written benchmark report.
func readReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Results) == 0 {
		return nil, fmt.Errorf("%s: report has no results", path)
	}
	return &r, nil
}

// regressionThreshold is the relative growth in ns/op or allocs/op beyond
// which diffReports declares a regression. Timing on a shared machine is
// noisy, so the gate is deliberately loose; allocation counts are
// deterministic and the same threshold catches any real leak.
const regressionThreshold = 0.10

// diffReports prints a benchstat-style delta table between a baseline
// report and the current run, and returns an error if any benchmark
// regressed by more than regressionThreshold in time or allocations.
// Benchmarks present on only one side are reported but never gate.
func diffReports(base *benchReport, cur benchReport) error {
	old := make(map[string]benchResult, len(base.Results))
	for _, r := range base.Results {
		old[r.Name] = r
	}
	label := base.Commit
	if label == "" {
		label = "baseline"
	}
	fmt.Printf("\nbenchmark deltas vs %s:\n", label)
	fmt.Printf("%-24s %13s %13s %8s   %13s %13s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	var regressed []string
	for _, r := range cur.Results {
		o, ok := old[r.Name]
		if !ok {
			fmt.Printf("%-24s %13s %13.0f %8s   %13s %13d %8s\n",
				r.Name, "-", r.NsPerOp, "new", "-", r.AllocsPerOp, "new")
			continue
		}
		dt := relDelta(o.NsPerOp, r.NsPerOp)
		da := relDelta(float64(o.AllocsPerOp), float64(r.AllocsPerOp))
		fmt.Printf("%-24s %13.0f %13.0f %+7.1f%%   %13d %13d %+7.1f%%\n",
			r.Name, o.NsPerOp, r.NsPerOp, 100*dt, o.AllocsPerOp, r.AllocsPerOp, 100*da)
		if o.BytesPerOp != r.BytesPerOp {
			fmt.Printf("%-24s %13d %13d %+7.1f%% B/op\n",
				"", o.BytesPerOp, r.BytesPerOp, 100*relDelta(float64(o.BytesPerOp), float64(r.BytesPerOp)))
		}
		if dt > regressionThreshold || da > regressionThreshold {
			regressed = append(regressed, r.Name)
		}
		delete(old, r.Name)
	}
	for name := range old {
		fmt.Printf("%-24s only in baseline\n", name)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regression beyond %.0f%% in: %s",
			100*regressionThreshold, strings.Join(regressed, ", "))
	}
	fmt.Println("no regressions beyond the threshold")
	return nil
}

// relDelta is (new-old)/old. Growth from a zero baseline is +Inf, so an
// allocation-free entry that starts allocating fails the gate.
func relDelta(old, new float64) float64 {
	switch {
	case old != 0:
		return (new - old) / old
	case new > 0:
		return math.Inf(1)
	}
	return 0
}

// techRunNames names the per-technique run entries; executor_run is
// Parallel Recovery.
var techRunNames = map[core.Technique]string{
	core.CheckpointRestart:            "cr_run",
	core.MultilevelCheckpoint:         "ml_run",
	core.ParallelRecovery:             "executor_run",
	core.PartialRedundancy:            "red1.5_run",
	core.FullRedundancy:               "red2.0_run",
	core.InMemoryReplicatedCheckpoint: "restore_run",
	core.LightweightReplication:       "teampi_run",
}

// exhibitBenches is the benchmark list. The exhibit entries resolve through
// the shared experiments registry — the same table cmd/exasim and
// internal/serve dispatch from — so a renamed or removed exhibit fails here
// instead of silently dropping its benchmark.
func exhibitBenches() []bench {
	reduced := experiments.Params{Trials: 10, Patterns: 2, Arrivals: 30}
	fig5Params := reduced
	fig5Params.Selection = selection.Options{
		Trials:        4,
		TimeSteps:     360,
		SizeFractions: []float64{0.01, 0.25},
	}
	// The _vr twins run the same grids in variance-reduced mode: antithetic
	// pattern pairs for the cluster study, and for fig5 a selector built
	// from one antithetic pair per arm under common random numbers
	// (PairedTrials: 1, half the probe runs of the fig5 entry's Trials: 4).
	// The delta against the plain entries is the cost side of the
	// variance-reduction trade documented in DESIGN.md §11.
	fig4VR := reduced
	fig4VR.Paired = true
	fig5VR := fig4VR
	fig5VR.Selection = selection.Options{
		PairedTrials:  1,
		TimeSteps:     360,
		SizeFractions: []float64{0.01, 0.25},
	}
	// Entries that BENCH_results.json records keep their order, and new ones
	// go after them: one-time cache fills amortize over b.N, so an entry's
	// allocs/op depends on what ran before it in the process.
	benches := []bench{
		{"fig1", benchExhibit("fig1", reduced)},
		{"fig2", benchExhibit("fig2", reduced)},
		{"fig3", benchExhibit("fig3", reduced)},
		{"fig4", benchExhibit("fig4", reduced)},
		{"fig4_vr", benchExhibit("fig4", fig4VR)},
		{"fig4_metrics", benchFig4Metrics},
		{"fig4_resume", benchFig4Resume},
		{"fig5", benchExhibit("fig5", fig5Params)},
		{"fig5_vr", benchExhibit("fig5", fig5VR)},
		{"batch_analytic", benchBatchAnalytic},
		{"cluster_run", benchClusterRun},
	}
	// One simulated execution per technique at a quarter-machine size: the
	// unit of work every study multiplies. The deltas between entries are
	// each technique's per-run bookkeeping, e.g. ReStore's replica sets and
	// TeaMPI's doubled footprint with repair-window tracking.
	quarter := exaresil.App{Class: exaresil.ClassC64, TimeSteps: 1440, Nodes: 30000}
	for _, tech := range core.Techniques() {
		benches = append(benches, bench{techRunNames[tech], benchRun(tech, quarter)})
	}
	benches = append(benches,
		bench{"multilevel_optimizer", benchMultilevelOptimizer},
		bench{"exact_markov_stretch", benchExactMarkovStretch},
		bench{"table1", benchExhibit("table1", reduced)},
		bench{"table2", benchExhibit("table2", reduced)})
	// Ablations of the design choices in DESIGN.md §4.3: the optimized
	// three-level schedule against a degenerate all-PFS pattern, and
	// Parallel Recovery's rework speedup phi swept to show how much of its
	// advantage is parallelized rework versus cheap in-memory checkpoints.
	half := exaresil.App{Class: exaresil.ClassC64, TimeSteps: 1440, Nodes: 60000}
	benches = append(benches,
		bench{"ablation_multilevel", benchRun(exaresil.MultilevelCheckpoint, half)},
		bench{"ablation_pfs_only", benchRun(exaresil.CheckpointRestart, half)})
	halfA32 := exaresil.App{Class: exaresil.ClassA32, TimeSteps: 1440, Nodes: 60000}
	for _, phi := range []float64{1, 4, 8, 16} {
		benches = append(benches, bench{fmt.Sprintf("ablation_phi%g", phi),
			benchRun(exaresil.ParallelRecovery, halfA32, exaresil.WithRecoverySpeedup(phi))})
	}
	return benches
}

// benchExhibit benchmarks one registry exhibit at a reduced statistical
// scale (benchmarks measure harness cost, not paper numbers).
func benchExhibit(name string, p experiments.Params) func(b *testing.B) {
	return func(b *testing.B) {
		ex, ok := experiments.Lookup(name)
		if !ok {
			b.Fatalf("exhibit %q is not in the experiments registry", name)
		}
		cfg := experiments.Default()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t, _, err := ex.Run(cfg, p)
			if err != nil {
				b.Fatal(err)
			}
			if t.Rows() == 0 {
				b.Fatal("empty table")
			}
		}
	}
}

// benchFig4Metrics is the fig4 bench with an obs registry attached: the
// delta against fig4 is the enabled-metrics overhead, and fig4 itself (nil
// registry, hooks compiled in) tracks the disabled overhead against the
// pre-obs baseline.
func benchFig4Metrics(b *testing.B) {
	ex, ok := experiments.Lookup("fig4")
	if !ok {
		b.Fatal("fig4 is not in the experiments registry")
	}
	cfg := experiments.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Obs = obs.NewRegistry()
		t, _, err := ex.Run(cfg, experiments.Params{Patterns: 2, Arrivals: 30})
		if err != nil {
			b.Fatal(err)
		}
		if t.Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// benchFig4Resume measures a checkpoint-resumed fig4 run: one fresh pass
// captures every grid cell through the Progress hook, then the timed loop
// replays runs with all but two cells restored. The delta against the
// adjacent fig4 entry is what a near-complete resume saves — the service's
// payoff for snapshotting interrupted jobs (DESIGN.md §10).
func benchFig4Resume(b *testing.B) {
	ex, ok := experiments.Lookup("fig4")
	if !ok {
		b.Fatal("fig4 is not in the experiments registry")
	}
	p := experiments.Params{Patterns: 2, Arrivals: 30}
	cfg := experiments.Default()

	var mu sync.Mutex
	cells := map[int][]float64{}
	cfg.Progress = &experiments.Progress{OnCell: func(cell int, values []float64) {
		mu.Lock()
		cells[cell] = values
		mu.Unlock()
	}}
	if _, _, err := ex.Run(cfg, p); err != nil {
		b.Fatal(err)
	}
	for cell := 0; cell < 2; cell++ { // leave a little real work in the loop
		delete(cells, cell)
	}
	cfg.Progress = &experiments.Progress{Completed: cells}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, _, err := ex.Run(cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		if t.Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// benchBatchAnalytic measures the steady-state cost of the batch analytic
// evaluator over the ext-whatif exhibit's grid shape (4 MTBFs x 7 sizes x
// 7 techniques). The evaluator is built once outside the timed loop, as the
// what-if service path reuses it, so the loop body is the pure column-pass
// Eval — expected to report zero allocs/op (the allocation-freedom test in
// internal/analytic pins that contract; this entry tracks its speed).
func benchBatchAnalytic(b *testing.B) {
	cfg := experiments.Default()
	grid := analytic.Grid{
		Machine:    cfg.Machine,
		PMF:        cfg.SeverityPMF,
		Resilience: cfg.Resilience,
		Class:      workload.D64,
		TimeSteps:  1440,
		MTBFs: []units.Duration{
			10 * units.Year, 5 * units.Year,
			units.Duration(2.5) * units.Year, units.Year,
		},
		Techniques: core.Techniques(),
	}
	for _, frac := range experiments.DefaultScalingFractions() {
		grid.Nodes = append(grid.Nodes, cfg.Machine.NodesForFraction(frac))
	}
	ev, err := analytic.NewEvaluator(grid)
	if err != nil {
		b.Fatal(err)
	}
	ev.Eval() // warm the multilevel stretch cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eff := ev.Eval()
		if len(eff) != len(grid.MTBFs)*len(grid.Nodes)*len(grid.Techniques) {
			b.Fatal("short efficiency buffer")
		}
	}
}

// benchClusterRun measures one full cluster simulation (the unit of
// Figures 4-5).
func benchClusterRun(b *testing.B) {
	sim, err := exaresil.New()
	if err != nil {
		b.Fatal(err)
	}
	pattern := sim.GeneratePattern(exaresil.PatternSpec{Arrivals: 100, FillSystem: true}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunCluster(exaresil.SlackBased, exaresil.ParallelRecovery, pattern, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRun measures one simulated execution of tech on app per iteration,
// under a simulator built with opts, and reports the mean efficiency.
func benchRun(tech exaresil.Technique, app exaresil.App, opts ...exaresil.Option) func(b *testing.B) {
	return func(b *testing.B) {
		sim, err := exaresil.New(opts...)
		if err != nil {
			b.Fatal(err)
		}
		x, err := sim.Executor(tech, app)
		if err != nil {
			b.Fatal(err)
		}
		src := rng.New(1)
		var eff float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eff += x.Run(0, 1e9, src).Efficiency()
		}
		b.ReportMetric(eff/float64(b.N), "efficiency")
	}
}

// multilevelCosts are the three-level checkpoint costs both schedule
// benchmarks search and evaluate.
var multilevelCosts = resilience.Costs{
	L1:  units.Duration(0.0033),
	L2:  units.Duration(0.0133),
	PFS: 17 * units.Minute,
}

// benchMultilevelOptimizer measures the schedule search: a rate varies
// slightly per iteration so the memoization cache misses for the first
// 1000 distinct rate vectors and later iterations hit it — the mix a
// cluster study actually sees.
func benchMultilevelOptimizer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rates := [3]units.Rate{
			units.Rate(0.0148 + float64(i%1000)*1e-9),
			0.0057,
			0.0023,
		}
		if _, err := resilience.OptimizeMultilevel(multilevelCosts, rates, resilience.DefaultMultilevelConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExactMarkovStretch measures the O(N) Markov-chain evaluation of a
// multilevel schedule (pattern length 576, the optimizer's maximum).
func benchExactMarkovStretch(b *testing.B) {
	rates := [3]units.Rate{0.0148, 0.0057, 0.0023}
	sched := resilience.MultilevelSchedule{Interval: 1, L1PerL2: 24, L2PerL3: 24}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := sched.ExactStretch(multilevelCosts, rates); v <= 1 {
			b.Fatal("implausible stretch")
		}
	}
}
