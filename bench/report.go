package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
)

// metric is one reported number. Spread, in the metric's own unit, is an
// inter-quartile range: over the runs of a set of runs (the run-to-run
// spread); for a single run, over its trials (end-to-end metrics) or over
// probe spans (per-layer metrics).
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// bulkBytes is the payload from which an operation's goodput is worth
// printing: below it the per-message cost is all there is.
const bulkBytes = 256 << 10

// familyUnit gives the latency unit of a family: whole program runs are
// milliseconds, array operations microseconds.
func familyUnit(f family) (unit string, perNs float64) {
	if f == famRun {
		return "ms", 1e-6
	}
	return "us", 1e-3
}

// latencyName names a family's latency metric: read_p50_us, run_p95_ms.
func latencyName(f family, stat string) string {
	unit, _ := familyUnit(f)
	return familyNames[f] + "_" + stat + "_" + unit
}

// endToEndNames lists the end-to-end metrics, the ones BENCHMARK.json bounds
// and the driver's result line carries, in print order.
func endToEndNames() []string {
	names := []string{"setup_s", "cycles_per_s"}
	for f := family(0); f < nFamilies; f++ {
		names = append(names, latencyName(f, "p50"))
	}
	return names
}

// tailNames lists the tail latencies every run reports beside them. They
// are not bounded in BENCHMARK.json: ten unchanged runs spread them wider
// than the widest bound the benchmark's driver admits (README.md has the
// figures). gather has none: the issue lists none, k=64 gathers being the
// cheapest family.
func tailNames() []string {
	var names []string
	for f := family(0); f < nFamilies; f++ {
		if f != famGather {
			names = append(names, latencyName(f, "p95"))
		}
	}
	return names
}

// workloadResult is one workload's entry in a results file.
type workloadResult struct {
	Workload     string  `json:"workload"`
	Why          string  `json:"why"`
	Seed         int64   `json:"seed"` // of the first run; run i uses Seed+i
	Runs         int     `json:"runs"`
	Trials       int     `json:"trials"`
	TrialSeconds float64 `json:"trial_seconds"`
	Traced       bool    `json:"traced"`
	Correct      bool    `json:"correct"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	FailedShare  float64 `json:"failed_share"`
	Complaint    string  `json:"complaint,omitempty"`
	// EndToEnd holds the untraced run's bounded metrics and Tails its tail
	// latencies; PerLayer holds the traced run's metrics. SideFamilies names
	// the families this workload's own cycle lacks: their latencies come
	// from the side operations on the 8 KiB shape.
	EndToEnd     map[string]metric `json:"end_to_end,omitempty"`
	Tails        map[string]metric `json:"tails,omitempty"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
	SideFamilies []string          `json:"side_families,omitempty"`
	// Samples is the per-trial sample count of each family; TailPercentile
	// the percentile each *_p95_* metric actually reports (95 unless a
	// trial held fewer than 200 samples of the family).
	Samples        map[string][]int   `json:"samples,omitempty"`
	TailPercentile map[string]float64 `json:"tail_percentile,omitempty"`
	// PerTrial holds each end-to-end metric's per-trial statistic, in trial
	// order (single run); PerRun each metric's figure of every run, in run
	// order (set of runs): what the figures and spreads above were taken over.
	PerTrial map[string][]float64 `json:"per_trial,omitempty"`
	PerRun   map[string][]float64 `json:"per_run,omitempty"`
	// GoodputMBs is payload bytes per operation over the family's p50, for
	// the families that move at least bulkBytes per operation: a
	// convenience derived from the metrics above, never gated.
	GoodputMBs map[string]float64 `json:"goodput_mb_s,omitempty"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Schema    int              `json:"schema"`
	GoVersion string           `json:"go_version"`
	NumCPU    int              `json:"num_cpu"`
	Seconds   float64          `json:"seconds"`
	IdlePoll  bool             `json:"idle_poll"` // the idle-poll helper ran (idlepoll.go)
	Workloads []workloadResult `json:"workloads"`
}

func newResultsFile(seconds float64, idlePoll bool) *resultsFile {
	return &resultsFile{Schema: 1, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Seconds: seconds, IdlePoll: idlePoll}
}

func (rf *resultsFile) write(path string) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultsFile(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// summarize reduces the trials of one run to its metrics: each is the median
// over trials of the per-trial statistic, the inter-quartile range over
// trials beside it.
func summarize(w workload, seed int64, trialSeconds float64, trials []*trialResult) workloadResult {
	res := workloadResult{
		Workload: w.name, Why: w.why, Seed: seed, Runs: 1, Trials: len(trials), TrialSeconds: trialSeconds,
		Correct:        true,
		EndToEnd:       map[string]metric{},
		Tails:          map[string]metric{},
		Samples:        map[string][]int{},
		TailPercentile: map[string]float64{},
		GoodputMBs:     map[string]float64{},
	}
	perTrial := map[string][]float64{}
	add := func(name string, v float64) { perTrial[name] = append(perTrial[name], v) }
	units := map[string]string{"setup_s": "s", "cycles_per_s": "1/s"}
	for _, t := range trials {
		res.Attempted += t.Ops
		res.Failed += t.Failed
		if !t.VerifyOK {
			res.Correct = false
			if res.Complaint == "" {
				res.Complaint = t.Verify
			}
		}
		add("setup_s", t.Setup.Seconds())
		add("cycles_per_s", float64(t.Cycles)/t.Window.Seconds())
		for f := family(0); f < nFamilies; f++ {
			unit, perNs := familyUnit(f)
			asc := sorted(t.Samples[f])
			name := familyNames[f]
			res.Samples[name] = append(res.Samples[name], len(asc))
			p50 := latencyName(f, "p50")
			units[p50] = unit
			add(p50, percentile(asc, 50)*perNs)
			if f == famGather {
				continue
			}
			p95 := latencyName(f, "p95")
			units[p95] = unit
			q := tailPercentile(len(asc), 95)
			add(p95, percentile(asc, q)*perNs)
			if old, ok := res.TailPercentile[p95]; !ok || q < old {
				res.TailPercentile[p95] = q
			}
		}
	}
	if res.Attempted > 0 {
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	}
	res.PerTrial = perTrial
	tails := tailNames()
	for name, vals := range perTrial {
		med, iqr := medianIQR(vals)
		into := res.EndToEnd
		if slices.Contains(tails, name) {
			into = res.Tails
		}
		into[name] = metric{Value: med, Unit: units[name], Spread: iqr}
	}
	for f := family(0); f < nFamilies; f++ {
		if trials[0].Side[f] {
			res.SideFamilies = append(res.SideFamilies, familyNames[f])
		}
	}
	for f := family(0); f < nFamilies; f++ {
		_, perNs := familyUnit(f)
		p50 := res.EndToEnd[latencyName(f, "p50")].Value / perNs // ns
		if b := trials[0].Bytes[f]; b >= bulkBytes && p50 > 0 {
			res.GoodputMBs[familyNames[f]] = float64(b) / p50 * 1e3 // bytes/ns → MB/s
		}
	}
	return res
}

// combineRuns reduces several runs of one workload, each with another seed,
// to one entry: every metric becomes its median over the runs with the
// inter-quartile range over the runs beside it, failures add up, and the
// tail percentile is the lowest any run reported.
func combineRuns(runs []workloadResult) workloadResult {
	res := runs[0]
	if len(runs) == 1 {
		return res
	}
	res.Runs = len(runs)
	res.PerTrial, res.Samples = nil, nil
	res.PerRun = map[string][]float64{}
	res.TailPercentile = map[string]float64{}
	res.GoodputMBs = map[string]float64{}
	res.Attempted, res.Failed = 0, 0
	for _, r := range runs {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if !r.Correct && res.Correct {
			res.Correct, res.Complaint = false, r.Complaint
		}
		for name, q := range r.TailPercentile {
			if old, ok := res.TailPercentile[name]; !ok || q < old {
				res.TailPercentile[name] = q
			}
		}
	}
	res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	overAll := func(pick func(workloadResult) map[string]metric) map[string]metric {
		if pick(runs[0]) == nil {
			return nil
		}
		out := map[string]metric{}
		for name, m := range pick(runs[0]) {
			for _, r := range runs {
				res.PerRun[name] = append(res.PerRun[name], pick(r)[name].Value)
			}
			med, iqr := medianIQR(res.PerRun[name])
			out[name] = metric{Value: med, Unit: m.Unit, Spread: iqr}
		}
		return out
	}
	res.EndToEnd = overAll(func(r workloadResult) map[string]metric { return r.EndToEnd })
	res.Tails = overAll(func(r workloadResult) map[string]metric { return r.Tails })
	res.PerLayer = overAll(func(r workloadResult) map[string]metric { return r.PerLayer })
	for name := range runs[0].GoodputMBs {
		var vals []float64
		for _, r := range runs {
			vals = append(vals, r.GoodputMBs[name])
		}
		res.GoodputMBs[name] = median(vals)
	}
	return res
}

// isSide says whether the named end-to-end metric is the latency of a family
// this workload measures through its side operations.
func (r workloadResult) isSide(name string) bool {
	family, _, _ := strings.Cut(name, "_")
	return slices.Contains(r.SideFamilies, family)
}

// printResult prints every metric of one workload by name with its unit.
func printResult(w io.Writer, r workloadResult) {
	status := "outputs correct"
	if !r.Correct {
		status = "OUTPUT CHECK FAILED: " + r.Complaint
	}
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	overE2E, overLayer := "trials", "probe spans"
	if r.Runs > 1 {
		mode = fmt.Sprintf("%s, median of %d runs", mode, r.Runs)
		overE2E, overLayer = "runs", "runs"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d, %d trials x %.2f s) — %s\n", r.Workload, mode, r.Seed, r.Trials, r.TrialSeconds, status)
	fmt.Fprintf(w, "   %s\n", r.Why)
	fmt.Fprintf(w, "   %-34s %14.6g %s  (%d of %d operations failed)\n", "failed_share", r.FailedShare, "ratio", r.Failed, r.Attempted)
	printMetrics := func(names []string, ms map[string]metric, over string) {
		for _, name := range names {
			m, ok := ms[name]
			if !ok {
				continue
			}
			note := ""
			if m.Value != 0 {
				note = fmt.Sprintf(" = %.3f of the figure", m.Spread/m.Value)
			}
			if q, ok := r.TailPercentile[name]; ok && q < 95 {
				note += fmt.Sprintf("  [p%.0f: a trial held under 200 samples]", q)
			}
			if r.isSide(name) {
				note += "  [side operation]"
			}
			fmt.Fprintf(w, "   %-34s %14.6g %-8s IQR over %s %.4g%s\n", name, m.Value, m.Unit, over, m.Spread, note)
		}
	}
	printMetrics(endToEndNames(), r.EndToEnd, overE2E)
	printMetrics(tailNames(), r.Tails, overE2E+", not bounded")
	layerNames := make([]string, 0, len(r.PerLayer))
	for name := range r.PerLayer {
		layerNames = append(layerNames, name)
	}
	slices.Sort(layerNames)
	printMetrics(layerNames, r.PerLayer, overLayer)
	if len(r.Samples) > 0 {
		var parts []string
		for f := family(0); f < nFamilies; f++ {
			parts = append(parts, fmt.Sprintf("%s %v", familyNames[f], r.Samples[familyNames[f]]))
		}
		fmt.Fprintf(w, "   samples per trial: %s\n", strings.Join(parts, ", "))
	}
	if len(r.GoodputMBs) > 0 {
		var parts []string
		for _, name := range familyNames {
			if g, ok := r.GoodputMBs[name]; ok {
				parts = append(parts, fmt.Sprintf("%s %.0f MB/s", name, g))
			}
		}
		fmt.Fprintf(w, "   goodput (computed payload bytes / p50, cache-resident): %s\n", strings.Join(parts, ", "))
	}
}

// driverLine is the machine-readable last line of a run.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printDriverLine(w io.Writer, r workloadResult) error {
	ms := r.EndToEnd
	if r.Traced {
		ms = r.PerLayer
	}
	out := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for name, m := range ms {
		out.Metrics[name] = metric{Value: m.Value, Unit: m.Unit} // value and unit only
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
