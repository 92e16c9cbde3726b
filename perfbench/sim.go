package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/obs"
	"exaresil/internal/resilience"
)

// simExhibits lists each simulator workload's exhibits in call order.
var simExhibits = map[string][]string{
	"sim_scaling": {"fig1", "fig2", "fig3"},
	"sim_cluster": {"fig4", "fig5"},
}

// minPasses is the fewest fresh-process passes a simulator run makes,
// however short --seconds is; probesPerGap is how many extra processes an
// untraced run starts only to time set-up, before the first pass and after
// every pass, so the set-up samples spread over the whole run.
const (
	minPasses    = 3
	probesPerGap = 8
)

// simPass is what one simulator child process reports.
type simPass struct {
	// Seed is the master seed the pass ran at.
	Seed uint64 `json:"seed"`
	// FirstCallNS is the wall clock (Unix ns) just before the first
	// exhibit call.
	FirstCallNS int64 `json:"first_call_unix_ns"`
	// WallS runs from the first exhibit call to the last table returned
	// and checked.
	WallS float64 `json:"wall_s"`
	// SpanWallS is the span-traced replay's wall time (traced passes).
	SpanWallS float64 `json:"span_wall_s,omitempty"`
	// Digests maps exhibit name to the SHA-256 of its CSV.
	Digests map[string]string `json:"digests"`
	// Mismatch names exhibits whose CSV differs from the committed
	// results/<name>.csv (checked at the paper's default seed only).
	Mismatch []string `json:"golden_mismatch,omitempty"`
	// HWMKiB is the process's peak resident set (VmHWM).
	HWMKiB int64 `json:"vm_hwm_kib"`
	// Layers holds per-layer measurements.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Errors lists exhibit or replay failures.
	Errors []string `json:"errors,omitempty"`
}

// runSimChild is one fresh simulator process: it runs the workload's
// exhibits once through the experiments registry and prints a simPass as
// JSON. A traced pass also attaches the program's own counters and then
// replays the exhibits' cells with spans (see replay.go), writing the
// spans to spansPath. A probe stops where the first exhibit call would
// be.
func runSimChild(o options, traced bool, spansPath string) error {
	names, ok := simExhibits[o.workload]
	if !ok {
		return fmt.Errorf("no simulator workload %q", o.workload)
	}
	cfg := experiments.Default()
	cfg.Seed = o.seed
	cfg.Workers = runtime.NumCPU()

	p := simPass{Seed: o.seed, Digests: map[string]string{}}
	var reg *obs.Registry
	var cells cellCounter
	if traced {
		reg = obs.NewRegistry()
		cfg.Obs = reg
		cfg.Progress = &experiments.Progress{OnCell: cells.note}
	}
	p.FirstCallNS = time.Now().UnixNano()
	if o.probe {
		return json.NewEncoder(os.Stdout).Encode(p)
	}
	start := time.Now()
	results := runExhibits(cfg, names, &p)
	p.WallS = time.Since(start).Seconds()

	if traced {
		p.Layers = obsLayers(reg)
		resilience.FlushScheduleCache() // the replay builds its selector from cold, as the exhibit did
		cfg.Obs, cfg.Progress = nil, nil
		rec := newRecorder()
		start = time.Now()
		if err := replay(cfg, names, results, rec); err != nil {
			p.Errors = append(p.Errors, err.Error())
		}
		p.SpanWallS = time.Since(start).Seconds()
		// Every cluster-grid cell the registry reported through OnCell
		// must have been replayed, and no other.
		if n, want := len(rec.named(spanCluster)), cells.n(); n != want {
			p.Errors = append(p.Errors, fmt.Sprintf("replayed %d cluster cells, OnCell reported %d", n, want))
		}
		for k, v := range spanLayers(rec) {
			p.Layers[k] = v
		}
		if err := rec.write(spansPath); err != nil {
			return err
		}
	} else {
		p.Layers = runtimeLayers()
	}
	p.HWMKiB = vmHWM("self")
	return json.NewEncoder(os.Stdout).Encode(p)
}

// cellCounter counts Progress.OnCell events.
type cellCounter struct {
	mu    sync.Mutex
	count int
}

func (c *cellCounter) note(int, []float64) {
	c.mu.Lock()
	c.count++
	c.mu.Unlock()
}

func (c *cellCounter) n() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// runExhibits calls each exhibit through the registry, digests its CSV,
// and at the paper's seed compares the bytes with the committed
// results/<name>.csv. It returns each exhibit's structured result.
func runExhibits(cfg experiments.Config, names []string, p *simPass) map[string]any {
	golden := cfg.Seed == experiments.Default().Seed
	out := map[string]any{}
	for _, name := range names {
		ex, ok := experiments.Lookup(name)
		if !ok {
			p.Errors = append(p.Errors, "unknown exhibit "+name)
			continue
		}
		t, res, err := ex.Run(cfg, experiments.Params{})
		if err != nil {
			p.Errors = append(p.Errors, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		var buf bytes.Buffer
		if err := t.WriteCSV(&buf); err != nil {
			p.Errors = append(p.Errors, fmt.Sprintf("%s csv: %v", name, err))
			continue
		}
		sum := sha256.Sum256(buf.Bytes())
		p.Digests[name] = hex.EncodeToString(sum[:])
		out[name] = res
		if golden {
			want, err := os.ReadFile(filepath.Join("results", name+".csv"))
			if err != nil || !bytes.Equal(want, buf.Bytes()) {
				p.Mismatch = append(p.Mismatch, name)
			}
		}
	}
	return out
}

// obsLayers reads the program's own counters after a traced exhibit run.
func obsLayers(reg *obs.Registry) map[string]float64 {
	c := counters(reg.Snapshot())
	hist := func(name string) (sum, count float64) {
		return c[name+"_sum"], c[name+"_count"]
	}
	depthSum, depthN := hist("exaresil_des_heap_depth")
	dropped := c.with("exaresil_cluster_apps_total", "outcome", "dropped-queued") +
		c.with("exaresil_cluster_apps_total", "outcome", "dropped-running")
	hits, misses := c["exaresil_selection_schedule_cache_hits_total"], c["exaresil_selection_schedule_cache_misses_total"]
	return map[string]float64{
		"resilience.runs":                    c["exaresil_resilience_runs_total"],
		"resilience.rollbacks":               c["exaresil_resilience_rollbacks_total"],
		"resilience.failures":                c["exaresil_resilience_failures_total"],
		"des.events_scheduled":               c["exaresil_des_events_scheduled_total"],
		"des.events_canceled":                c["exaresil_des_events_canceled_total"],
		"des.heap_depth_mean":                ratio(depthSum, depthN),
		"des.heap_depth_peak":                c["exaresil_des_heap_depth_peak"],
		"cluster.apps_started":               c["exaresil_cluster_apps_started_total"],
		"cluster.dropped_frac":               ratio(dropped, c["exaresil_cluster_apps_total"]),
		"sched.mapper_invocations":           c["exaresil_cluster_mapper_invocations_total"],
		"selection.probes":                   c["exaresil_selection_probes_total"],
		"selection.schedule_cache_hit_ratio": ratio(hits, hits+misses),
	}
}

// seriesTotals sums series values by family name (over all label sets);
// histograms contribute name_sum and name_count. with() reads one labeled
// series.
type seriesTotals map[string]float64

func counters(snap []obs.MetricSnapshot) seriesTotals {
	c := seriesTotals{}
	for _, s := range snap {
		if s.Kind == "histogram" {
			c[s.Name+"_sum"] += s.Sum
			c[s.Name+"_count"] += float64(s.Count)
			continue
		}
		c[s.Name] += s.Value
		for k, v := range s.Labels {
			c[s.Name+"{"+k+"="+v+"}"] += s.Value
		}
	}
	return c
}

func (c seriesTotals) with(name, label, value string) float64 {
	return c[name+"{"+label+"="+value+"}"]
}

// runtimeLayers reads the Go runtime's allocation and GC totals for this
// process.
func runtimeLayers() map[string]float64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return map[string]float64{
		"go.alloc_mb":    val(0) / (1 << 20),
		"go.gc_cycles":   val(1),
		"go.gc_cpu_frac": ratio(val(2), val(3)),
	}
}

// vmHWM reads a process's peak resident set in KiB from /proc (0 if
// unavailable).
func vmHWM(pid string) int64 {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	var kib int64
	for _, line := range bytes.Split(b, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("VmHWM:")) {
			fmt.Sscanf(string(line[len("VmHWM:"):]), "%d", &kib)
		}
	}
	return kib
}

// spawnSimChild runs one fresh simulator process and decodes its report.
// t0 is read just before the process is started.
func spawnSimChild(o options, traced bool, spansPath string) (p simPass, t0 time.Time, err error) {
	self, err := os.Executable()
	if err != nil {
		return p, t0, err
	}
	args := []string{"-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed), fmt.Sprintf("-probe=%v", o.probe)}
	if traced {
		args = append(args, "-trace", "1", "-spans", spansPath)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	t0 = time.Now()
	if err := cmd.Run(); err != nil {
		return p, t0, fmt.Errorf("simulator pass: %w", err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &p); err != nil {
		return p, t0, fmt.Errorf("simulator pass output: %w", err)
	}
	return p, t0, nil
}

// simTally accumulates the outcome checks over a run's passes: every
// exhibit of every pass must have no error, match the golden CSV (paper
// seed), and repeat the digest of the first pass at the same seed.
type simTally struct {
	ref               map[uint64]map[string]string
	attempted, failed int
	notes             []string
}

func (t *simTally) add(names []string, p simPass) {
	if t.ref == nil {
		t.ref = map[uint64]map[string]string{}
	}
	if t.ref[p.Seed] == nil {
		t.ref[p.Seed] = p.Digests
	}
	t.attempted += len(names)
	bad := map[string]bool{}
	for _, n := range p.Mismatch {
		bad[n] = true
		t.notes = append(t.notes, n+": CSV differs from results/"+n+".csv")
	}
	for _, n := range names {
		if d, ok := p.Digests[n]; !ok || d != t.ref[p.Seed][n] {
			bad[n] = true
		}
	}
	t.notes = append(t.notes, p.Errors...)
	if len(p.Errors) > 0 && len(bad) == 0 {
		bad["replay"] = true
	}
	t.failed += len(bad)
}

// checkAcrossRuns compares the run's digests with those an earlier run of
// the same workload and seed stored under state, storing them if this is
// the first such run. It returns the exhibits that differ. The record is
// not keyed by the program's source, so a change that alters the output
// at a seed fails here; after an intended output change, delete
// state/digests.
func checkAcrossRuns(state string, rr runRecord, digests map[string]string) ([]string, error) {
	dir := filepath.Join(state, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", rr.Workload, rr.Seed))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]string
		if err := json.Unmarshal(b, &prev); err != nil {
			return nil, fmt.Errorf("digest record %s: %w", path, err)
		}
		var diff []string
		for n, d := range prev {
			if digests[n] != d {
				diff = append(diff, n)
			}
		}
		return diff, nil
	}
	b, err := json.Marshal(digests)
	if err != nil {
		return nil, err
	}
	return nil, os.WriteFile(path, b, 0o644)
}

// runSim measures a simulator workload. An untraced run makes
// fresh-process passes until --seconds is spent: the first at the paper's
// seed, whose CSVs must equal the committed ones whatever --seed is, the
// rest at --seed. Set-up probes run before the first pass and after each
// one. A traced run makes one untraced and one traced pass at --seed.
func runSim(o options, rr *runRecord) (result, map[string]float64, error) {
	names := simExhibits[o.workload]
	var tally simTally
	var walls, setups, hwms []float64
	m := map[string]float64{}
	addPass := func(p simPass, t0 time.Time) {
		tally.add(names, p)
		walls = append(walls, p.WallS)
		setups = append(setups, float64(p.FirstCallNS-t0.UnixNano())/1e9)
		hwms = append(hwms, float64(p.HWMKiB)/1024)
	}
	if o.trace {
		plain, t0, err := spawnSimChild(o, false, "")
		if err != nil {
			return result{}, nil, err
		}
		addPass(plain, t0)
		dir := filepath.Join(o.state, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, nil, err
		}
		spans := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		traced, t0, err := spawnSimChild(o, true, spans)
		if err != nil {
			return result{}, nil, err
		}
		addPass(traced, t0)
		for k, v := range traced.Layers {
			m[k] = v
		}
		for k, v := range plain.Layers {
			m[k] = v
		}
		m["bench.obs_overhead_frac"] = traced.WallS/plain.WallS - 1
		m["bench.trace_overhead_frac"] = traced.SpanWallS/plain.WallS - 1
		rr.Notes = append(rr.Notes, "spans: "+spans)
	} else {
		probe := o
		probe.probe = true
		probes := func() error {
			for range probesPerGap {
				p, t0, err := spawnSimChild(probe, false, "")
				if err != nil {
					return err
				}
				setups = append(setups, float64(p.FirstCallNS-t0.UnixNano())/1e9)
			}
			return nil
		}
		golden := o
		golden.seed = experiments.Default().Seed
		begin := time.Now()
		limit := time.Duration(o.seconds) * time.Second
		for {
			if err := probes(); err != nil {
				return result{}, nil, err
			}
			pass := o
			if len(walls) == 0 {
				pass = golden
			}
			p, t0, err := spawnSimChild(pass, false, "")
			if err != nil {
				return result{}, nil, err
			}
			addPass(p, t0)
			last := time.Since(t0)
			if len(walls) >= minPasses && time.Since(begin)+last > limit {
				break
			}
		}
		if err := probes(); err != nil {
			return result{}, nil, err
		}
	}
	diff, err := checkAcrossRuns(o.state, *rr, tally.ref[o.seed])
	if err != nil {
		return result{}, nil, err
	}
	for _, n := range diff {
		tally.failed++
		tally.notes = append(tally.notes, n+": digest differs from an earlier run at this seed")
	}
	rr.Passes = len(walls)
	rr.Notes = append(rr.Notes, tally.notes...)
	m["wall_s"] = median(walls)
	m["setup_s"] = median(setups)
	m["max_rss_mb"] = median(hwms)
	m["fail_frac"] = ratio(float64(tally.failed), float64(tally.attempted))
	return result{Correct: tally.failed == 0, Attempted: tally.attempted, Failed: tally.failed}, m, nil
}
