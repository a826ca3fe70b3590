// Command experiments regenerates the figures of the paper's evaluation.
//
// Usage:
//
//	experiments [-fig N] [-quick] [-seed S] [-workers W]
//
// With no -fig flag every figure is produced. -quick shrinks the meshes
// and inputs so the whole suite finishes in well under a minute; without
// it the original problem sizes (16×16 and 32×32 meshes, up to 60,000
// bodies) are simulated, which takes tens of minutes. -workers W runs up
// to W simulations concurrently: the cells of all requested figures share
// one pool, and each figure prints, in figure order, as soon as its cells
// are done. The output is byte-identical for any W, because every
// simulation is seeded from -seed alone.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"diva/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(experiments.Figures(), ", ")+", or all")
	quick := flag.Bool("quick", false, "scaled-down inputs (seconds instead of tens of minutes)")
	seed := flag.Uint64("seed", 1999, "random seed (1999: the year of the paper)")
	workers := flag.Int("workers", 1, "number of simulations to run concurrently (0: one per CPU)")
	flag.Parse()

	r := experiments.New(os.Stdout, *quick, *seed)
	if *workers == 0 {
		*workers = runtime.NumCPU()
	}
	r.Workers = *workers
	var err error
	if *fig == "all" {
		err = r.RunAll()
	} else {
		err = r.Run(*fig)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
