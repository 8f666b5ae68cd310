package triangular

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// TestFactorsMatchSequential checks the distributed elimination against
// the sequential reference under every row distribution, including the
// cyclic and block-cyclic layouts, whose rectangles split into per-owner
// run lists.
func TestFactorsMatchSequential(t *testing.T) {
	for _, c := range []struct {
		name string
		dist grid.Decomp
		n, p int
	}{
		{"block", grid.BlockDefault(), 12, 4},
		{"block/uneven", grid.BlockDefault(), 13, 4},
		{"cyclic", grid.CyclicDefault(), 12, 4},
		{"cyclic/uneven", grid.CyclicDefault(), 13, 4},
		{"blockcyclic", grid.BlockCyclicOf(2), 14, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := core.New(c.p)
			defer m.Close()
			if err := RegisterPrograms(m); err != nil {
				t.Fatal(err)
			}
			cfg := Config{N: c.n, Dist: c.dist}
			res, err := Run(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := RunSequential(cfg)
			if dev := MaxDeviation(res.Factors, want); dev > 1e-12 {
				t.Fatalf("factors deviate from sequential by %g", dev)
			}
			if res.WorkUnits <= 0 {
				t.Fatalf("work units %v", res.WorkUnits)
			}
		})
	}
}

// TestPanelHandoff pins the redistribution plane's payoff on the
// block→cyclic panel pipeline: both modes reproduce the sequential
// factors exactly, and the direct owner↔owner handoff beats the
// gather-then-scatter bounce on modeled critical-path hops. Message
// counts are exact and equal: per panel the direct path sends (remote
// source ? 1 ship order : 0) + (P-1) owner-to-owner ships, while the
// bounce sends the owner read request (free for the caller-local panel
// 0) plus (P-1) owner writes — P²-1 router messages in both modes, since
// each coordinator runs on the caller.
func TestPanelHandoff(t *testing.T) {
	const n, p = 16, 4
	results := map[bool]*PanelResult{}
	for _, bounce := range []bool{false, true} {
		m := core.New(p)
		if err := RegisterPrograms(m); err != nil {
			m.Close()
			t.Fatal(err)
		}
		res, err := RunPanelHandoff(m, PanelConfig{N: n, Bounce: bounce})
		m.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := RunSequential(Config{N: n})
		if dev := MaxDeviation(res.Factors, want); dev > 1e-12 {
			t.Fatalf("bounce=%v factors deviate from sequential by %g", bounce, dev)
		}
		results[bounce] = res
	}
	direct, bounce := results[false], results[true]
	// direct: panel 0 costs P-1 msgs, each of the P-1 remote panels P.
	// bounce: the same (panel 0's local read is free, and a remote read
	// is one owner request).
	for mode, res := range map[string]*PanelResult{"direct": direct, "bounce": bounce} {
		if want := uint64(p*p - 1); res.HandoffMsgs != want {
			t.Fatalf("%s messages = %d, want %d", mode, res.HandoffMsgs, want)
		}
	}
	if wd, wb := 2+3*(p-1), 2+4*(p-1); direct.HandoffHops != wd || bounce.HandoffHops != wb {
		t.Fatalf("hops = %d/%d, want %d/%d", direct.HandoffHops, bounce.HandoffHops, wd, wb)
	}
	if direct.HandoffHops >= bounce.HandoffHops {
		t.Fatalf("direct (%d hops) does not beat bounce (%d hops)", direct.HandoffHops, bounce.HandoffHops)
	}
}

// TestCyclicBalancesWork pins the load-balance argument deterministically:
// the modeled makespan (max active-row steps over copies) of the cyclic
// layout is strictly below the block layout's on every swept shape.
func TestCyclicBalancesWork(t *testing.T) {
	for _, c := range []struct{ n, p int }{{16, 4}, {32, 8}} {
		t.Run(fmt.Sprintf("n=%d/P=%d", c.n, c.p), func(t *testing.T) {
			units := map[string]float64{}
			for name, dist := range map[string]grid.Decomp{
				"block": grid.BlockDefault(), "cyclic": grid.CyclicDefault(),
			} {
				m := core.New(c.p)
				if err := RegisterPrograms(m); err != nil {
					m.Close()
					t.Fatal(err)
				}
				res, err := Run(m, Config{N: c.n, Dist: dist})
				m.Close()
				if err != nil {
					t.Fatal(err)
				}
				units[name] = res.WorkUnits
			}
			if units["cyclic"] >= units["block"] {
				t.Fatalf("cyclic makespan %v not below block %v", units["cyclic"], units["block"])
			}
		})
	}
}
