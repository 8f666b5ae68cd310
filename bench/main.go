// Command bench is the repository's benchmark: six workloads driven through
// the public functions of core and the layers under it, end-to-end
// latencies per operation family, and a traced run that prices each layer.
// See README.md beside this file.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
)

// trialsPerRun is fixed: a run's figures are medians and quartiles over
// its trials, so runs with different trial counts do not compare.
const trialsPerRun = 10

func main() {
	if code, ok := childRole(); ok {
		os.Exit(code)
	}
	os.Exit(run(os.Args[1:]))
}

// childRole handles the three roles this binary is re-executed in, and
// otherwise declares the process worker-capable. Every part of a cluster
// runs this binary: a worker re-exec boots its part and parks until the
// driver says bye (checked first: a worker inherits its driver's
// environment). A trial re-exec runs one trial and prints its result; the
// idle-poll helper keeps the CPUs awake for the length of a run.
func childRole() (code int, ok bool) {
	if cfg, ok := cluster.WorkerConfig(); ok {
		if err := cluster.RunWorker(cfg, registerPart); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			return 1, true
		}
		return 0, true
	}
	if os.Getenv(spinEnv) != "" {
		return serveIdlePoll(), true
	}
	cluster.EnableSelfSpawn()
	if arg := os.Getenv(trialEnv); arg != "" {
		return serveTrial(arg), true
	}
	return 0, false
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	runs     int
	trials   int
	warmup   int // warm-up cycles before every timed window; tests shorten it
	trace    int
	traceOut string
	out      string
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	o := options{trials: trialsPerRun, warmup: warmupCycles}
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs (gather indices, written values, polynomial coefficients)")
	fs.Float64Var(&o.seconds, "seconds", 15, "timed seconds of the run, shared equally by its trials")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, each with the next seed; more than one reports medians and spreads over the runs")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace-event file of a traced run (default bench/out/trace-<workload>.json)")
	fs.StringVar(&o.out, "out", "", "write the results of the run to this JSON file")
	compare := fs.Bool("compare", false, "compare two results files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
			return 2
		}
		return runCompare(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if o.seconds <= 0 || o.runs < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -seconds > 0, -runs >= 1 and -trace 0 or 1")
		return 2
	}
	// The benchmark holds itself to BENCHMARK.json on every run: the
	// workloads before anything runs, the metrics of each result below.
	spec, err := readBenchmarkSpec()
	if err == nil {
		err = spec.checkWorkloads()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	selected := workloads
	if o.workload != "all" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []workload{w}
	}

	stopIdlePoll, idlePoll, err := startIdlePoll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer stopIdlePoll()
	if !idlePoll {
		fmt.Fprintln(os.Stderr, "bench: no idle-poll helper: this run's numbers do not compare with runs that had it")
	}

	// Runs outside, workloads inside: the runs of one workload lie minutes
	// apart, so a busy stretch of the host cannot cover them all.
	perWorkload := make([][]workloadResult, len(selected))
	for r := 0; r < o.runs; r++ {
		for i, w := range selected {
			var res workloadResult
			var err error
			if o.trace == 1 {
				res, err = runTraced(w, o)
			} else {
				res, err = runUntraced(w, o)
			}
			if err == nil {
				err = spec.checkMetrics(res)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printResult(os.Stdout, res)
			perWorkload[i] = append(perWorkload[i], res)
		}
		o.seed++
	}
	rf := newResultsFile(o.seconds, idlePoll)
	failed := false
	for _, runs := range perWorkload {
		res := combineRuns(runs)
		if o.runs > 1 {
			printResult(os.Stdout, res)
		}
		rf.Workloads = append(rf.Workloads, res)
		failed = failed || !res.Correct
	}
	if o.out != "" {
		if err := rf.write(o.out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Println()
	for _, res := range rf.Workloads { // the last line of a single-workload run is its result object
		if err := printDriverLine(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runUntraced is the end-to-end run: o.trials trials, each in a process of
// its own on a freshly booted machine, sharing o.seconds of timed window.
func runUntraced(w workload, o options) (workloadResult, error) {
	window := time.Duration(o.seconds / float64(o.trials) * float64(time.Second))
	trials := make([]*trialResult, 0, o.trials)
	for i := 0; i < o.trials; i++ {
		t, err := runTrialProcess(trialSpec{Workload: w.name, Seed: o.seed, Warmup: o.warmup, Window: window})
		if err != nil {
			return workloadResult{}, err
		}
		trials = append(trials, t)
	}
	return summarize(w, o.seed, window.Seconds(), trials), nil
}

// tracePath returns where a traced run of w flushes its spans: by default
// bench/out/, whether the run started in bench/ or at the repository root.
func tracePath(w workload, o options) (string, error) {
	path := o.traceOut
	if path == "" {
		dir := "out"
		if _, err := os.Stat("bench/go.mod"); err == nil {
			dir = filepath.Join("bench", "out")
		}
		path = filepath.Join(dir, "trace-"+w.name+".json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	return path, nil
}
