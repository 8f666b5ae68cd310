package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "cycles_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name     string
		spec     metricSpec
		old, cur metric
		want     verdict
	}{
		{"inside bound", lower, metric{Value: 100, Spread: 3}, metric{Value: 108, Spread: 2}, verdictOK},
		{"better is ok", lower, metric{Value: 100, Spread: 3}, metric{Value: 60, Spread: 2}, verdictOK},
		{"outside bound", lower, metric{Value: 100, Spread: 3}, metric{Value: 115, Spread: 4}, verdictRegressed},
		{"spread wider than bound", lower, metric{Value: 100, Spread: 3}, metric{Value: 115, Spread: 14}, verdictUnresolved},
		{"wide spread hides an equal median too", lower, metric{Value: 100, Spread: 12}, metric{Value: 100, Spread: 1}, verdictUnresolved},
		{"higher is better: a drop regresses", higher, metric{Value: 500, Spread: 10}, metric{Value: 430, Spread: 10}, verdictRegressed},
		{"higher is better: a rise is ok", higher, metric{Value: 500, Spread: 10}, metric{Value: 600, Spread: 10}, verdictOK},
		{"no old figure", lower, metric{}, metric{Value: 100, Spread: 1}, verdictMissing},
		{"no new figure", lower, metric{Value: 100, Spread: 1}, metric{}, verdictMissing},
	} {
		if got, _ := judge(c.spec, c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResultsExitCode(t *testing.T) {
	spec := &benchmarkSpec{
		Workloads: []workloadSpec{{Name: "inproc-ops"}},
		EndToEnd:  []metricSpec{{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.10}},
	}
	set := func(v, failedShare float64) *resultsFile {
		return &resultsFile{Workloads: []workloadResult{{
			Workload: "inproc-ops", FailedShare: failedShare,
			EndToEnd: map[string]metric{"read_p50_us": {Value: v, Unit: "us", Spread: 8}},
		}}}
	}
	for _, c := range []struct {
		name     string
		old, cur *resultsFile
		exit     int
		says     string
	}{
		{"inside the bound", set(100, 0), set(104, 0), 0, "1.040 of 100 us"}, // the ratio with its base
		{"outside the bound", set(100, 0), set(120, 0), 1, "regressed"},
		{"a rise in failed_share", set(100, 0), set(100, 0.01), 1, "failed_share rose"},
		{"a workload dropped from the new set", set(100, 0), &resultsFile{}, 1, "not in both sets"},
		{"a metric dropped from the new set", set(100, 0), &resultsFile{Workloads: []workloadResult{{Workload: "inproc-ops"}}}, 1, "1 missing"},
		{"an old figure of zero", set(0, 0), set(100, 0), 1, "1 missing"},
	} {
		var out bytes.Buffer
		if code := compareResults(&out, spec, c.old, c.cur); code != c.exit || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: exit %d, want %d and %q in\n%s", c.name, code, c.exit, c.says, out.String())
		}
	}
}

// TestCompareRefusesMixedIdlePoll: a set taken with the idle-poll helper and
// one taken without are different measurements.
func TestCompareRefusesMixedIdlePoll(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, idlePoll bool) string {
		path := filepath.Join(dir, name)
		if err := newResultsFile(15, idlePoll).write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if code := runCompare(io.Discard, write("with.json", true), write("without.json", false)); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}

func TestCombineRuns(t *testing.T) {
	run := func(v float64, failed int, correct bool) workloadResult {
		return workloadResult{
			Workload: "inproc-ops", Seed: 3, Runs: 1, Correct: correct, Complaint: "bad", Attempted: 100, Failed: failed,
			EndToEnd:       map[string]metric{"read_p50_us": {Value: v, Unit: "us", Spread: 1}},
			TailPercentile: map[string]float64{"read_p95_us": v},
			GoodputMBs:     map[string]float64{"read": 10 * v},
		}
	}
	one := run(100, 0, true)
	if got := combineRuns([]workloadResult{one}); got.Runs != 1 || got.EndToEnd["read_p50_us"].Spread != 1 {
		t.Errorf("a single run must come back unchanged: %+v", got)
	}
	got := combineRuns([]workloadResult{run(100, 0, true), run(104, 2, false), run(98, 0, true), run(120, 0, true), run(101, 0, true)})
	m := got.EndToEnd["read_p50_us"]
	if m.Value != 101 || !near(m.Spread, 13) || m.Unit != "us" { // sorted 98 100 101 104 120: q1 = 99, q3 = 112
		t.Errorf("median and IQR over runs: %+v, want 101 and 13", m)
	}
	if got.Runs != 5 || got.Seed != 3 || len(got.PerRun["read_p50_us"]) != 5 {
		t.Errorf("runs %d seed %d per-run %v", got.Runs, got.Seed, got.PerRun)
	}
	if got.Correct || got.Complaint != "bad" || got.Attempted != 500 || got.Failed != 2 || !near(got.FailedShare, 0.004) {
		t.Errorf("failures must add up and one failed check fail the set: %+v", got)
	}
	if got.TailPercentile["read_p95_us"] != 98 || got.GoodputMBs["read"] != 1010 {
		t.Errorf("tail percentile %v (want the lowest, 98), goodput %v (want the median, 1010)", got.TailPercentile, got.GoodputMBs)
	}
}
