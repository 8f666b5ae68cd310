package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads:
// the names it must emit and the regression bound of each end-to-end
// metric.
type benchmarkSpec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBenchmarkSpec finds BENCHMARK.json from the repository root or from
// the benchmark's own directory.
func readBenchmarkSpec() (*benchmarkSpec, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found here or one directory up: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// checkWorkloads reports where the benchmark's workloads differ from the
// ones BENCHMARK.json names.
func (spec *benchmarkSpec) checkWorkloads() error {
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		if w := workloads[i]; sw.Name != w.name || sw.Why != w.why {
			return fmt.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, sw.Name, sw.Why, w.name, w.why)
		}
	}
	return nil
}

// checkMetrics reports where the metrics of one result differ from the ones
// BENCHMARK.json names for its kind of run: a name missing or extra, a unit
// that differs, a value that is not a number.
func (spec *benchmarkSpec) checkMetrics(res workloadResult) error {
	want, got := spec.EndToEnd, res.EndToEnd
	if res.Traced {
		want, got = spec.PerLayer, res.PerLayer
	}
	for _, ms := range want {
		m, ok := got[ms.Name]
		switch {
		case !ok:
			return fmt.Errorf("%s: metric %s named in BENCHMARK.json is not emitted", res.Workload, ms.Name)
		case m.Unit != ms.Unit:
			return fmt.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", res.Workload, ms.Name, m.Unit, ms.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("%s: %s is %v", res.Workload, ms.Name, m.Value)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", res.Workload, len(got), len(want))
	}
	return nil
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
	verdictMissing    verdict = "missing" // no usable figure on one side
)

// judge compares one metric of one workload between two result sets. The
// new figure is worse by its distance from the old one as a share of the
// old one, in the metric's bad direction; spread is the wider of the two
// sets' spreads (over runs, or for a single run over its trials) as a share
// of the old figure. A spread wider than the bound cannot resolve a change
// of the bound's size, so the pair is unresolved whatever the figures say.
// A figure that is not a positive number has no ratio: missing.
func judge(spec metricSpec, old, cur metric) (v verdict, spread float64) {
	if !(old.Value > 0) || !(cur.Value > 0) {
		return verdictMissing, 0
	}
	worse := (cur.Value - old.Value) / old.Value
	if spec.Better == "higher" {
		worse = -worse
	}
	spread = max(old.Spread, cur.Spread) / old.Value
	switch {
	case spread > spec.Bound:
		return verdictUnresolved, spread
	case worse > spec.Bound:
		return verdictRegressed, spread
	}
	return verdictOK, spread
}

// runCompare prints one row per workload and end-to-end metric and returns
// the exit code: non-zero on any regressed or missing row or any rise in
// failed_share.
func runCompare(w io.Writer, oldPath, newPath string) int {
	spec, err := readBenchmarkSpec()
	var oldRF, newRF *resultsFile
	if err == nil {
		oldRF, err = readResultsFile(oldPath)
	}
	if err == nil {
		newRF, err = readResultsFile(newPath)
	}
	if err == nil && oldRF.IdlePoll != newRF.IdlePoll {
		err = fmt.Errorf("%s was taken with the idle-poll helper=%v, %s with %v: the two do not compare", oldPath, oldRF.IdlePoll, newPath, newRF.IdlePoll)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareResults(w, spec, oldRF, newRF)
}

// untraced indexes the end-to-end entries of a results file by workload.
func untraced(rf *resultsFile) map[string]workloadResult {
	byName := map[string]workloadResult{}
	for _, r := range rf.Workloads {
		if !r.Traced {
			byName[r.Workload] = r
		}
	}
	return byName
}

func compareResults(w io.Writer, spec *benchmarkSpec, oldRF, newRF *resultsFile) int {
	olds, news := untraced(oldRF), untraced(newRF)
	tally := map[verdict]int{}
	failuresRose := false
	fmt.Fprintf(w, "%-16s %-14s %14s %14s  %-22s %8s %8s  %s\n",
		"workload", "metric", "old", "new", "ratio (base old)", "spread", "bound", "verdict")
	// Every workload BENCHMARK.json names must be in both sets: a set that
	// lost one has not shown that it did not regress.
	for _, sw := range spec.Workloads {
		o, ok1 := olds[sw.Name]
		n, ok2 := news[sw.Name]
		if !ok1 || !ok2 {
			tally[verdictMissing]++
			fmt.Fprintf(w, "%-16s not in both sets  %s\n", sw.Name, verdictMissing)
			continue
		}
		mark := ""
		if n.FailedShare > o.FailedShare {
			failuresRose = true
			mark = "  ROSE"
		}
		fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g%s\n", sw.Name, "failed_share", o.FailedShare, n.FailedShare, mark)
		for _, ms := range spec.EndToEnd {
			om, nm := o.EndToEnd[ms.Name], n.EndToEnd[ms.Name] // absent: the zero metric, which judge calls missing
			v, spread := judge(ms, om, nm)
			tally[v]++
			note := ""
			if n.isSide(ms.Name) {
				note = "  (side operation)"
			}
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g  %-22s %8.3f %8.2f  %s%s\n",
				sw.Name, ms.Name, om.Value, nm.Value,
				fmt.Sprintf("%.3f of %.4g %s", nm.Value/om.Value, om.Value, ms.Unit), spread, ms.Bound, v, note)
		}
	}
	fmt.Fprintf(w, "\n%d ok, %d regressed, %d unresolved (spread wider than the bound), %d missing",
		tally[verdictOK], tally[verdictRegressed], tally[verdictUnresolved], tally[verdictMissing])
	if failuresRose {
		fmt.Fprint(w, "; failed_share rose")
	}
	fmt.Fprintln(w)
	if tally[verdictRegressed] > 0 || tally[verdictMissing] > 0 || failuresRose {
		return 1
	}
	return 0
}
