// Command climate runs the coupled ocean/atmosphere simulation of §2.3.1
// (Fig 2.1): two data-parallel time-stepped simulations on disjoint
// processor groups exchanging boundary data through the task-parallel top
// level at every step.
//
//	go run ./examples/climate -p 4 -rows 16 -cols 12 -steps 50
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/apps/climate"
	"repro/internal/core"
)

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func main() {
	p := flag.Int("p", 4, "virtual processors (even; half per simulation)")
	rows := flag.Int("rows", 16, "field rows (divisible by p/2)")
	cols := flag.Int("cols", 12, "field columns")
	steps := flag.Int("steps", 50, "time steps")
	alpha := flag.Float64("alpha", 0.4, "diffusion weight")
	channels := flag.Bool("channels", false, "use the §7.2.1 extension: boundary exchange over direct channels")
	flag.Parse()

	m := core.New(*p)
	defer m.Close()
	if err := climate.RegisterPrograms(m); err != nil {
		log.Fatal(err)
	}
	cfg := climate.Config{Rows: *rows, Cols: *cols, Steps: *steps, Alpha: *alpha}
	run := climate.Run
	if *channels {
		run = climate.RunChanneled
	}
	res, err := run(m, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cells, worst := climate.Diff(res, climate.RunSequential(cfg))
	fmt.Printf("after %d coupled steps on %d processors (two groups of %d):\n", *steps, *p, *p/2)
	fmt.Printf("  mean ocean temperature:      %8.4f\n", mean(res.Ocean))
	fmt.Printf("  mean atmosphere temperature: %8.4f\n", mean(res.Atmosphere))
	fmt.Printf("  max deviation from sequential reference: %.3g\n", worst)
	if cells != 0 {
		log.Fatalf("%d cells differ from the sequential reference; the coupled run must be bit-identical", cells)
	}
}
