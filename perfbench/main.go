// Command perfbench is exaresil's workload benchmark. It runs one named
// workload at one seed and prints its metrics, ending with one JSON line:
//
//	bash perfbench/run.sh --workload sim_scaling --seed 1 --seconds 30 --trace 0
//
// run.sh builds this command and cmd/exaserve from the checkout, then runs
// it from the checkout's root. See perfbench/README.md for the workloads,
// the metrics and how each layer's numbers are taken.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string // directory holding the built exaserve
	state    string // build directory for logs, traces and digest records
	child    bool   // run one simulator pass in this process
	probe    bool   // with child: stop before the first exhibit call
	spans    string // where a traced simulator pass writes its spans
}

// workloads maps each workload to its runner.
var workloads = map[string]func(options, *runRecord) (result, map[string]float64, error){
	"sim_scaling": runSim,
	"sim_cluster": runSim,
	"serve_zipf":  runServe,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 20170529, "workload seed (20170529 also checks the committed CSVs)")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	fs.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the exaserve binary")
	fs.StringVar(&o.state, "state", ".bench_build", "directory for logs, traces and digest records")
	fs.BoolVar(&o.child, "child", false, "internal: run one simulator pass")
	fs.BoolVar(&o.probe, "probe", false, "internal: with -child, time set-up only")
	fs.StringVar(&o.spans, "spans", "", "internal: span file of a traced simulator pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = trace == 1
	runner, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds < 1 {
		return fmt.Errorf("need -workload (%s), -trace 0|1 and -seconds >= 1", strings.Join(workloadNames(), ", "))
	}
	if o.child {
		return runSimChild(o, o.trace, o.spans)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(o.state, 0o755); err != nil {
		return err
	}

	rr := newRunRecord(o)
	res, measured, err := runner(o, &rr)
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res.Metrics = report(os.Stdout, defs, measured)
	printExtra(os.Stdout, defs, measured)
	fmt.Printf("record %s\n", mustJSON(rr))
	if !rr.Valid {
		return fmt.Errorf("invalid run, not reported: %s", strings.Join(rr.Notes, "; "))
	}
	return writeResult(os.Stdout, res)
}

func workloadNames() []string {
	var n []string
	for k := range workloads {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}
