package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract with BENCHMARK.json (a test keeps them
// equal).
type metricDef struct{ name, unit string }

// endToEnd is what every untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
}

// perLayer is what every traced run reports, on every workload. A layer
// the workload does not reach reports 0.
var perLayer = []metricDef{
	{"experiments.cells", "count"},
	{"experiments.cell_ms_p50", "ms"},
	{"experiments.cell_ms_max", "ms"},
	{"appsim.calls", "count"},
	{"appsim.self_s", "s"},
	{"resilience.run_us_p50", "us"},
	{"resilience.busy_s", "s"},
	{"resilience.runs", "count"},
	{"resilience.rollbacks", "count"},
	{"resilience.failures", "count"},
	{"des.events_scheduled", "count"},
	{"des.events_canceled", "count"},
	{"des.heap_depth_mean", "count"},
	{"des.heap_depth_peak", "count"},
	{"cluster.calls", "count"},
	{"cluster.run_ms_p50", "ms"},
	{"cluster.busy_s", "s"},
	{"cluster.apps_started", "count"},
	{"cluster.dropped_frac", "ratio"},
	{"sched.mapper_invocations", "count"},
	{"selection.build_s", "s"},
	{"selection.probes", "count"},
	{"selection.choose_ns_p50", "ns"},
	{"selection.schedule_cache_hit_ratio", "ratio"},
	{"go.alloc_mb", "MiB"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"lat_p50_ms.lo", "ms"},
	{"lat_p99_ms.lo", "ms"},
	{"lat_p50_ms.hi", "ms"},
	{"lat_p99_ms.hi", "ms"},
	{"hit_p50_ms.hi", "ms"},
	{"miss_p50_ms.hi", "ms"},
	{"goodput_rps.hi", "req/s"},
	{"fail_frac", "ratio"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.poll_ms_p50", "ms"},
	{"serve.result_ms_p50", "ms"},
	{"serve.submit_server_ms_mean", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.join_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.reject_frac", "ratio"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.exec_per_miss", "ratio"},
	{"serve.polls_per_miss", "ratio"},
	{"serve.miss_overcount", "count"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.obs_overhead_frac", "ratio"},
}

// infLatencyMS stands for "infinitely late" in reported latencies: JSON
// has no infinity, and a refused, failed or wrong request never delivered
// its result.
const infLatencyMS = 1e9

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report selects the metrics of defs from measured (missing ones read 0),
// prints each as a readable "name value unit" line to w, and returns them
// keyed by name. Infinite values read infLatencyMS.
func report(w io.Writer, defs []metricDef, measured map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := measured[d.name]
		if math.IsInf(v, 0) {
			v = infLatencyMS
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-36s %14.10g %s\n", d.name, v, d.unit)
	}
	return out
}

// printExtra prints measured values that are not part of defs, sorted by
// name, for the reader of the run's output.
func printExtra(w io.Writer, defs []metricDef, measured map[string]float64) {
	in := map[string]bool{}
	for _, d := range defs {
		in[d.name] = true
	}
	var names []string
	for n := range measured {
		if !in[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.10g (also measured)\n", n, measured[n])
	}
}

// writeResult prints the result object as one JSON line.
func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
