package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"time"
)

// trialResult is what one trial on one freshly booted machine measured. A
// trial child process hands it to its parent as JSON.
type trialResult struct {
	Setup    time.Duration        // start → end of warm-up
	Window   time.Duration        // timed window actually used
	Cycles   int                  // complete cycles in the window
	Samples  [nFamilies][]float64 // per cycle: mean latency of the family's operations, nanoseconds
	Ops      int                  // operations attempted
	Bytes    [nFamilies]int       // payload bytes of one operation
	Side     [nFamilies]bool      // the family came from the side operations
	Failed   int                  // operations that returned an error or failed the output check
	VerifyOK bool
	Verify   string  // the output check's complaint, if any
	Msgs     uint64  // Router.Sent delta of the driver part over the window
	AllocKB  float64 // driver-part heap allocation over the window
	Allocs   uint64
}

// trialSpec describes one trial. Start is when its set-up time begins: for
// a trial child, just before its parent started the process.
type trialSpec struct {
	Workload string
	Seed     int64
	Warmup   int
	Window   time.Duration
	Start    time.Time
}

// trialEnv carries a trialSpec (as JSON) to a re-exec of this binary.
const trialEnv = "TDP_BENCH_TRIAL"

// runTrialProcess runs one trial in a child process of its own and returns
// what it measured. Latencies on this machine sit in one of several regimes
// that last as long as the process does (a fifth apart on the 8 KiB
// operations), so trials that shared a process would share its regime and
// the best of them would be the best of that one regime.
func runTrialProcess(spec trialSpec) (*trialResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec.Start = time.Now()
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), trialEnv+"="+string(arg))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, fmt.Errorf("%s: trial process: %w", spec.Workload, err)
	}
	var res trialResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s: trial process output: %w", spec.Workload, err)
	}
	return &res, nil
}

// serveTrial is the trial child: run the trial the environment describes,
// print the result as JSON, and return the exit code.
func serveTrial(arg string) int {
	var spec trialSpec
	err := json.Unmarshal([]byte(arg), &spec)
	if err == nil {
		var res *trialResult
		if res, err = runTrial(spec, nil, false); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench trial:", err)
		return 1
	}
	return 0
}

// sideShare is the part of a trial's timed window given to the side
// operations; the workload's own cycle gets the rest.
const sideShare = 0.2

// runTrial boots a machine, sets the workload up on it, warms it up, runs
// complete cycles of the workload for the length of its timed window and
// then complete cycles of the side operations for theirs, checks the
// outputs and tears the machine down. With a recorder, every call into
// core is wrapped in a span; without one the loop carries a nil check and
// nothing else. With damage set, the workload's state is corrupted after
// the timed windows and before the output check: the self-test of that
// check.
func runTrial(spec trialSpec, rec *recorder, damage bool) (*trialResult, error) {
	w, ok := findWorkload(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	mc, err := bootMachine(w.wire)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	defer mc.close()
	inst, err := w.setup(mc.m, rand.New(rand.NewSource(spec.Seed)))
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	all := slices.Concat(inst.ops, inst.side)
	for i := 0; i < spec.Warmup; i++ {
		for _, o := range all {
			if err := o.do(); err != nil {
				return nil, fmt.Errorf("%s: warm-up %s: %w", w.name, familyNames[o.fam], err)
			}
		}
	}
	res := &trialResult{Setup: time.Since(spec.Start)}
	for _, o := range all {
		res.Bytes[o.fam] = o.bytes
	}
	for _, o := range inst.side {
		res.Side[o.fam] = true
	}

	side := time.Duration(sideShare * float64(spec.Window))
	trialSpan := rec.begin("trial", w.name, 0)
	router := mc.m.VM.Router()
	runtime.GC() // start every window from a collected heap
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sent0 := router.Sent()
	res.Cycles, res.Window = res.cycles(inst.ops, spec.Window-side, rec, "cycle")
	res.Msgs = router.Sent() - sent0
	runtime.ReadMemStats(&ms1)
	res.AllocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	res.Allocs = ms1.Mallocs - ms0.Mallocs
	res.cycles(inst.side, side, rec, "side-cycle")
	rec.end(trialSpan, "cycles", res.Cycles)
	rec.count(trialSpan, "messages", int(res.Msgs))
	rec.count(trialSpan, "allocs", int(res.Allocs))

	if damage {
		if err := inst.damage(); err != nil {
			return nil, err
		}
	}
	if err := inst.verify(); err != nil {
		res.Verify = err.Error()
	} else if res.Failed == 0 {
		res.VerifyOK = true
	}
	if !res.VerifyOK {
		res.Failed = res.Ops // a failed check fails every operation of the trial
	}
	return res, nil
}

// cycles issues ops in order, cycle after complete cycle, until window has
// passed, timing every operation, and returns the cycles made and the time
// they took.
func (res *trialResult) cycles(ops []op, window time.Duration, rec *recorder, spanName string) (n int, took time.Duration) {
	var perCycle [nFamilies]int // operations of each family in one cycle
	for _, o := range ops {
		perCycle[o.fam]++
	}
	start := time.Now()
	for time.Since(start) < window {
		n++
		cycleSpan := rec.begin("cycle", spanName, uint64(n))
		var sum [nFamilies]time.Duration
		for _, o := range ops {
			opSpan := rec.begin("core", "core."+familyNames[o.fam], uint64(n))
			t := time.Now()
			err := o.do()
			d := time.Since(t)
			rec.end(opSpan, "payload_bytes", o.bytes)
			sum[o.fam] += d
			res.Ops++
			if err != nil {
				res.Failed++
				if res.Verify == "" {
					res.Verify = fmt.Sprintf("%s: %v", familyNames[o.fam], err)
				}
			}
		}
		// One sample per family and cycle: the mean over the family's
		// operations in the cycle. Where a cycle repeats a family on
		// differently placed data (the four panels) single operations are
		// multi-modal and their median sits on a mode boundary.
		for f, k := range perCycle {
			if k > 0 {
				res.Samples[f] = append(res.Samples[f], float64(sum[f].Nanoseconds())/float64(k))
			}
		}
		rec.end(cycleSpan, "operations", len(ops))
	}
	return n, time.Since(start)
}
