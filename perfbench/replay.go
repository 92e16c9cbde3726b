package main

// The span-traced replay: the benchmark's own copy of the cell loops of
// figures 1-5, calling each layer's public functions (appsim.Run,
// cluster.Run, selection.NewSelector, the executor's Run and the
// selector's Choose) inside spans. The replay must reproduce the numbers
// the registry run produced; any difference is reported as an error, so a
// drift between this copy and the experiments drivers cannot go unseen.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"exaresil/internal/appsim"
	"exaresil/internal/cluster"
	"exaresil/internal/core"
	"exaresil/internal/experiments"
	"exaresil/internal/failures"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/selection"
	"exaresil/internal/stats"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// Span names of the replay.
const (
	spanAppsim   = "appsim.Run"
	spanExecutor = "resilience.Executor.Run"
	spanCluster  = "cluster.Run"
	spanSelector = "selection.NewSelector"
	spanChoose   = "selection.Choose"
)

// replay re-runs the cells of each named exhibit with spans and checks
// them against the registry's structured results.
func replay(cfg experiments.Config, names []string, results map[string]any, rec *recorder) error {
	var errs []error
	for _, name := range names {
		res, ok := results[name]
		if !ok {
			continue // the registry run already failed and was counted
		}
		id, start := rec.begin()
		var err error
		switch name {
		case "fig1":
			err = replayScaling(cfg, workload.A32, 0, res.(experiments.ScalingResult), rec, id)
		case "fig2":
			err = replayScaling(cfg, workload.D64, 0, res.(experiments.ScalingResult), rec, id)
		case "fig3":
			err = replayScaling(cfg, workload.D64, units.Duration(2.5)*units.Year, res.(experiments.ScalingResult), rec, id)
		case "fig4":
			err = replayFig4(cfg, res.(experiments.ClusterResult), rec, id)
		case "fig5":
			err = replayFig5(cfg, res.(experiments.SelectionResult), rec, id)
		default:
			err = fmt.Errorf("no replay for %s", name)
		}
		rec.end(id, 0, 0, "experiments."+name, start)
		if err != nil {
			errs = append(errs, fmt.Errorf("replay %s: %w", name, err))
		}
	}
	return errors.Join(errs...)
}

// tracedExecutor wraps an executor so each Run is a span under parent.
// Clones stay wrapped, so every appsim worker's runs are traced.
type tracedExecutor struct {
	resilience.Executor
	rec    *recorder
	parent int64
}

func (x *tracedExecutor) Run(start, horizon units.Duration, src *rng.Source) resilience.Result {
	id, t0 := x.rec.begin()
	r := x.Executor.Run(start, horizon, src)
	x.rec.end(id, x.parent, 0, spanExecutor, t0)
	return r
}

func (x *tracedExecutor) Clone() resilience.Executor {
	return &tracedExecutor{Executor: x.Executor.Clone(), rec: x.rec, parent: x.parent}
}

// replayScaling mirrors ScalingSpec.Run at the paper's defaults: one
// appsim study per (size, technique) cell.
func replayScaling(cfg experiments.Config, class workload.Class, mtbf units.Duration, want experiments.ScalingResult, rec *recorder, parent int64) error {
	if mtbf <= 0 {
		mtbf = cfg.Machine.MTBF
	}
	model, err := failures.NewModel(mtbf, cfg.SeverityPMF)
	if err != nil {
		return err
	}
	k := 0
	for _, frac := range experiments.DefaultScalingFractions() {
		app := workload.App{Class: class, TimeSteps: 1440, Nodes: cfg.Machine.NodesForFraction(frac)}
		for ti, tech := range core.PaperTechniques() {
			x, err := resilience.New(tech, app, cfg.Machine, model, cfg.Resilience)
			if err != nil {
				return err
			}
			id, t0 := rec.begin()
			st := appsim.Run(appsim.TrialSpec{
				Executor: &tracedExecutor{Executor: x, rec: rec, parent: id},
				Trials:   200,
				Seed:     cfg.Seed ^ (uint64(ti+1) * 0x517cc1b727220a95),
				Workers:  cfg.Workers,
			})
			rec.end(id, parent, 0, spanAppsim, t0)
			if k >= len(want.Points) || st.Efficiency != want.Points[k].Efficiency {
				return fmt.Errorf("cell %d (%v at %g): efficiency differs from the registry run", k, tech, frac)
			}
			k++
		}
	}
	if k != len(want.Points) {
		return fmt.Errorf("replayed %d cells, registry reported %d", k, len(want.Points))
	}
	return nil
}

// gridCell is one (policy, pattern) cell of a cluster grid.
type gridCell struct {
	scheduler core.Scheduler
	technique core.Technique
	chooser   *selection.Selector // non-nil: choose per application
}

// clusterPatterns mirrors ClusterSpec's shared arrival patterns.
func clusterPatterns(cfg experiments.Config, n int, bias workload.Bias) []workload.Pattern {
	out := make([]workload.Pattern, n)
	var src rng.Source
	for p := range out {
		src.SetStream(cfg.Seed, uint64(p))
		out[p] = workload.PatternSpec{Arrivals: 100, Bias: bias, FillSystem: true}.Generate(cfg.Machine, &src)
	}
	return out
}

// replayGrid mirrors the experiments cluster grid: every (combo, pattern)
// cell is one cluster.Run span, spread over cfg.Workers goroutines, and
// each combo's dropped percentages are folded in pattern order.
func replayGrid(cfg experiments.Config, model *failures.Model, pats []workload.Pattern, combos []gridCell, rec *recorder, parent int64) ([]stats.Summary, error) {
	total := len(combos) * len(pats)
	tasks := make(chan int, total)
	for i := range total {
		tasks <- i
	}
	close(tasks)
	pct := make([]float64, total)
	errs := make([]error, total)
	var wg sync.WaitGroup
	for range min(cfg.Workers, total) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				cb, p := combos[i/len(pats)], i%len(pats)
				id, t0 := rec.begin()
				spec := cluster.Spec{
					Machine:    cfg.Machine,
					Model:      model,
					Scheduler:  cb.scheduler,
					Technique:  cb.technique,
					Resilience: cfg.Resilience,
					Pattern:    pats[p],
					Seed:       cfg.Seed ^ (uint64(p+1) * 0xd1342543de82ef95),
				}
				if sel := cb.chooser; sel != nil {
					spec.Chooser = func(app workload.App) core.Technique {
						cid, c0 := rec.begin()
						t := sel.Choose(app)
						rec.end(cid, id, 0, spanChoose, c0)
						return t
					}
				}
				m, err := cluster.Run(spec)
				rec.end(id, parent, 0, spanCluster, t0)
				pct[i], errs[i] = m.DroppedPct(), err
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make([]stats.Summary, len(combos))
	for c := range combos {
		var acc stats.Accumulator
		acc.AddAll(pct[c*len(pats) : (c+1)*len(pats)])
		out[c] = acc.Summarize()
	}
	return out, nil
}

// replayFig4 mirrors Figure 4 at the paper's 50 patterns.
func replayFig4(cfg experiments.Config, want experiments.ClusterResult, rec *recorder, parent int64) error {
	model, err := failures.NewModel(cfg.Machine.MTBF, cfg.SeverityPMF)
	if err != nil {
		return err
	}
	var combos []gridCell
	for _, sch := range core.Schedulers() {
		for _, tech := range append([]core.Technique{core.Ideal}, core.ClusterTechniques()...) {
			combos = append(combos, gridCell{scheduler: sch, technique: tech})
		}
	}
	got, err := replayGrid(cfg, model, clusterPatterns(cfg, 50, workload.Unbiased), combos, rec, parent)
	if err != nil {
		return err
	}
	if len(got) != len(want.Cells) {
		return fmt.Errorf("replayed %d combos, registry reported %d", len(got), len(want.Cells))
	}
	for i, s := range got {
		if s != want.Cells[i].Dropped {
			return fmt.Errorf("combo %d: dropped%% differs from the registry run", i)
		}
	}
	return nil
}

// replayFig5 mirrors Figure 5: one selector build, then per bias a grid
// of (scheduler x {Parallel Recovery, selection}) over 50 patterns.
func replayFig5(cfg experiments.Config, want experiments.SelectionResult, rec *recorder, parent int64) error {
	model, err := failures.NewModel(cfg.Machine.MTBF, cfg.SeverityPMF)
	if err != nil {
		return err
	}
	id, t0 := rec.begin()
	sel, err := selection.NewSelector(cfg.Machine, model, cfg.Resilience,
		selection.Options{Seed: cfg.Seed ^ 0xa0761d6478bd642f})
	rec.end(id, parent, 0, spanSelector, t0)
	if err != nil {
		return err
	}
	k := 0
	for _, bias := range workload.Biases() {
		var combos []gridCell
		for _, sch := range core.Schedulers() {
			combos = append(combos,
				gridCell{scheduler: sch, technique: core.ParallelRecovery},
				gridCell{scheduler: sch, chooser: sel})
		}
		got, err := replayGrid(cfg, model, clusterPatterns(cfg, 50, bias), combos, rec, parent)
		if err != nil {
			return err
		}
		for i := 0; i < len(got); i += 2 {
			if k >= len(want.Cells) || got[i] != want.Cells[k].Baseline || got[i+1] != want.Cells[k].Selected {
				return fmt.Errorf("%s cell %d: dropped%% differs from the registry run", bias, k)
			}
			k++
		}
	}
	if k != len(want.Cells) {
		return fmt.Errorf("replayed %d cells, registry reported %d", k, len(want.Cells))
	}
	return nil
}

// spanLayers derives the per-layer metrics from the replay's spans.
func spanLayers(rec *recorder) map[string]float64 {
	exhibit := map[int64]string{}
	for _, s := range rec.spans {
		if s.Parent == 0 {
			exhibit[s.ID] = s.Name
		}
	}
	var cellMS, fig4MS []float64
	for _, s := range rec.spans {
		if (s.Name == spanAppsim || s.Name == spanCluster) && exhibit[s.Parent] != "" {
			ms := float64(s.dur()) / float64(time.Millisecond)
			cellMS = append(cellMS, ms)
			if s.Name == spanCluster && exhibit[s.Parent] == "experiments.fig4" {
				fig4MS = append(fig4MS, ms)
			}
		}
	}
	cellP50, _ := percentile(cellMS, 50)
	cellMax, _ := percentile(cellMS, 100)
	runUS := rec.durations(spanExecutor, time.Microsecond)
	runP50, _ := percentile(runUS, 50)
	fig4P50, _ := percentile(fig4MS, 50)
	chooseP50, _ := percentile(rec.durations(spanChoose, time.Nanosecond), 50)
	return map[string]float64{
		"experiments.cells":       float64(len(cellMS)),
		"experiments.cell_ms_p50": cellP50,
		"experiments.cell_ms_max": cellMax,
		"appsim.calls":            float64(len(rec.named(spanAppsim))),
		"appsim.self_s":           rec.selfSeconds(spanAppsim),
		"resilience.run_us_p50":   runP50,
		"resilience.busy_s":       sum(runUS) / 1e6,
		"cluster.calls":           float64(len(fig4MS)),
		"cluster.run_ms_p50":      fig4P50,
		"cluster.busy_s":          sum(fig4MS) / 1e3,
		"selection.build_s":       sum(rec.durations(spanSelector, time.Second)),
		"selection.choose_ns_p50": chooseP50,
	}
}
