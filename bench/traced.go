package main

import (
	"fmt"
	"time"
)

// runTraced is the per-layer run of one workload. Two fifths of o.seconds
// go to four trials in this process, untraced and traced by turns (their
// mean cycle times give the tracing overhead; sharing a process, they share
// its latency regime), three fifths to the layer probes, run as spans under
// a "probe" root. The spans are flushed as Chrome trace-event JSON when the
// run ends. End-to-end numbers never come from this run.
func runTraced(w workload, o options) (workloadResult, error) {
	path, err := tracePath(w, o)
	if err != nil {
		return workloadResult{}, err
	}
	fifth := time.Duration(o.seconds / 5 * float64(time.Second))
	rec := newRecorder()
	var plain, traced []*trialResult
	for i := 0; i < 4; i++ {
		spec := trialSpec{Workload: w.name, Seed: o.seed, Warmup: o.warmup, Window: fifth / 2, Start: time.Now()}
		group, r := &plain, (*recorder)(nil)
		if i%2 == 1 {
			group, r = &traced, rec
		}
		t, err := runTrial(spec, r, false)
		if err != nil {
			return workloadResult{}, err
		}
		*group = append(*group, t)
	}
	layers, err := runProbes(rec, o.seed, 3*fifth)
	if err != nil {
		return workloadResult{}, fmt.Errorf("%s: layer probes: %w", w.name, err)
	}

	res := summarize(w, o.seed, (fifth / 2).Seconds(), append(plain, traced...))
	res.Traced = true
	res.EndToEnd, res.Tails, res.PerTrial, res.GoodputMBs = nil, nil, nil, nil
	res.PerLayer = layers

	var cycles, msgs, allocKB, allocs float64
	var samples [nFamilies][]float64
	for _, t := range traced {
		cycles += float64(t.Cycles)
		msgs += float64(t.Msgs)
		allocKB += t.AllocKB
		allocs += float64(t.Allocs)
		for f := range samples {
			samples[f] = append(samples[f], t.Samples[f]...)
		}
	}
	layers["msg.msgs_per_cycle"] = metric{Value: msgs / cycles, Unit: "count"}
	layers["core.alloc_kb_per_cycle"] = metric{Value: allocKB / cycles, Unit: "KiB"}
	layers["core.allocs_per_cycle"] = metric{Value: allocs / cycles, Unit: "count"}
	layers["cluster.peak_rss_mb"] = metric{Value: peakRSSMiB(), Unit: "MiB"}
	meanCycle := func(ts []*trialResult) float64 {
		var window time.Duration
		n := 0
		for _, t := range ts {
			window += t.Window
			n += t.Cycles
		}
		return window.Seconds() / float64(n)
	}
	layers["core.trace_overhead_share"] = metric{Value: meanCycle(traced)/meanCycle(plain) - 1, Unit: "ratio"}

	// Per-family figures come from the traced trials.
	p50us := map[family]float64{}
	for f := family(0); f < nFamilies; f++ {
		unit, perNs := familyUnit(f)
		asc := sorted(samples[f])
		for _, stat := range []struct {
			name string
			want float64
		}{{"p95", 95}, {"p99", 99}} {
			q := tailPercentile(len(asc), stat.want)
			layers["core."+latencyName(f, stat.name)] = metric{Value: percentile(asc, q) * perNs, Unit: unit}
		}
		p50us[f] = percentile(asc, 50) * 1e-3
	}
	if err := attribute(w.shape, layers, p50us, layers); err != nil {
		return workloadResult{}, err
	}
	if err := rec.writeChromeTrace(path); err != nil {
		return workloadResult{}, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(rec.spans), path)
	return res, nil
}
