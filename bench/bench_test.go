package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestMain is the child hook: when a cluster driver or a benchmark run
// re-execs this test binary with a role variable set, boot a worker part or
// run one trial instead of the test list (the pattern of internal/cluster's
// tests).
func TestMain(m *testing.M) {
	if code, ok := childRole(); ok {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smokeOptions sizes a run for the test suite: one short trial, a short
// warm-up.
func smokeOptions(t *testing.T, seconds float64) options {
	return options{seed: 7, seconds: seconds, trials: 1, warmup: 2,
		traceOut: filepath.Join(t.TempDir(), "trace.json")}
}

// TestSmokeEveryWorkload runs each workload for a fifth of a second and
// checks that it verifies its outputs and emits exactly the end-to-end
// metrics BENCHMARK.json names, each with its unit — the check every real
// run makes of itself (checkWorkloads, checkMetrics).
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := readBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.checkWorkloads(); err != nil {
		t.Fatal(err)
	}
	for _, ms := range append(spec.EndToEnd, spec.PerLayer...) {
		if !nameRE.MatchString(ms.Name) {
			t.Errorf("BENCHMARK.json metric name %q does not match %s", ms.Name, nameRE)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
		res, err := runUntraced(w, smokeOptions(t, 0.2))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d (%s)", w.name, res.Correct, res.Failed, res.Attempted, res.Complaint)
		}
		if err := spec.checkMetrics(res); err != nil {
			t.Error(err)
		}
	}
}

// TestCheckMetricsTrips: a result that lacks a metric, or carries it in
// another unit, does not pass for what BENCHMARK.json names.
func TestCheckMetricsTrips(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []metricSpec{{Name: "read_p50_us", Unit: "us"}, {Name: "setup_s", Unit: "s"}}}
	good := map[string]metric{"read_p50_us": {Value: 8, Unit: "us"}, "setup_s": {Value: 0.1, Unit: "s"}}
	if err := spec.checkMetrics(workloadResult{EndToEnd: good}); err != nil {
		t.Errorf("a complete result was refused: %v", err)
	}
	for name, bad := range map[string]map[string]metric{
		"missing":      {"read_p50_us": {Value: 8, Unit: "us"}},
		"wrong unit":   {"read_p50_us": {Value: 8, Unit: "ms"}, "setup_s": {Value: 0.1, Unit: "s"}},
		"extra":        {"read_p50_us": {Value: 8, Unit: "us"}, "setup_s": {Value: 0.1, Unit: "s"}, "x": {}},
		"not a number": {"read_p50_us": {Value: math.NaN(), Unit: "us"}, "setup_s": {Value: 0.1, Unit: "s"}},
	} {
		if spec.checkMetrics(workloadResult{EndToEnd: bad}) == nil {
			t.Errorf("%s: the result passed", name)
		}
	}
}

// TestSmokeTracedRun makes one traced run and checks that it emits exactly
// the per-layer metrics BENCHMARK.json names and a loadable trace.
func TestSmokeTracedRun(t *testing.T) {
	spec, err := readBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("wire-small")
	o := smokeOptions(t, 0.5)
	res, err := runTraced(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run failed its output check: %s", res.Complaint)
	}
	if err := spec.checkMetrics(res); err != nil {
		t.Error(err)
	}

	data, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("the trace is not valid JSON: %v", err)
	}
	seen := map[string]int{}
	for _, ev := range trace.TraceEvents {
		seen[ev.Name]++
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Fatalf("malformed trace event %+v", ev)
		}
	}
	for _, name := range []string{"wire-small", "cycle", "side-cycle", "core.read", "core.redist", "core.run", "probe", "msg.hop_ns", "net.rtt_small_us"} {
		if seen[name] == 0 {
			t.Errorf("the trace holds no %q span", name)
		}
	}
}

// TestIdlePollHelper starts the helper, which must say that it spins (or
// that this sandbox refuses SCHED_IDLE), and stops it, which must return.
func TestIdlePollHelper(t *testing.T) {
	stop, ok, err := startIdlePoll()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if !ok {
		t.Skip("this sandbox refuses SCHED_IDLE; runs go on without the helper")
	}
}

// TestOutputCheckTrips corrupts one element of a checked array after the
// timed window: the trial must fail its output check and count every
// operation as failed.
func TestOutputCheckTrips(t *testing.T) {
	for _, name := range []string{"inproc-ops", "panel-handoff", "polymult-inproc"} {
		res, err := runTrial(trialSpec{Workload: name, Seed: 7, Warmup: 2, Window: 50 * time.Millisecond, Start: time.Now()}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.VerifyOK || res.Verify == "" {
			t.Errorf("%s: a corrupted array passed the output check", name)
		}
		if res.Failed != res.Ops || res.Ops == 0 {
			t.Errorf("%s: %d of %d operations counted as failed, want all", name, res.Failed, res.Ops)
		}
	}
}
