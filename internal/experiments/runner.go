// Package experiments regenerates every figure of the paper's evaluation
// (§3): the matrix multiplication ratio studies (Figures 3 and 4), the
// bitonic sorting ratio studies (Figures 6 and 7), the Barnes-Hut curves
// (Figures 8, 9, 10), the Barnes-Hut scaling study (Figure 11), and the
// illustrative Figures 1, 2 and 5. Each figure prints the measured series
// next to the values reported in the paper. Beyond the paper, the
// "topologies" sweep repeats the Figure-8 strategy comparison on the
// torus, hypercube and fat-tree at matched processor counts, and the
// "faults" sweep measures strategy degradation under seeded link-failure
// and churn schedules on the mesh and an irregular degraded-mesh graph.
//
// Absolute times depend on the simulated machine's constants; the paper's
// qualitative shape — who wins, by what factor, how ratios scale with
// network size — is what these experiments reproduce (see EXPERIMENTS.md).
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"

	"diva"
	"diva/internal/core"
	"diva/internal/decomp"
	"diva/strategy"
)

// Runner executes figures. Quick mode shrinks meshes and inputs so the full
// suite completes in seconds-to-minutes instead of tens of minutes.
type Runner struct {
	W     io.Writer
	Quick bool
	Seed  uint64
	// Workers sets the runner's degree of parallelism: when > 1, whole
	// figures and the cells of in-figure fan-outs (the Barnes-Hut sweep,
	// the topologies sweep, the matmul/bitonic ratio figures) all draw
	// from one shared pool of this many slots — a figure goroutine lends
	// its slot to its own fan-out, so the pool bounds the number of
	// concurrently running simulations across the whole run. Output is
	// buffered per figure and emitted in figure order, so the bytes written
	// to W are identical to a sequential run's.
	Workers int

	// pool is the shared slot pool (created on first parallel use and
	// inherited by worker clones); holding marks a clone whose figure
	// goroutine currently occupies a slot, so runCells can lend it out.
	pool    chan struct{}
	holding bool

	bhCache *bhCache
}

// ensurePool creates the shared slot pool. Callers invoke it before any
// fan-out goroutines exist (runParallel setup, or a direct in-figure
// fan-out on a sequentially-driven runner), so creation is single-threaded.
func (r *Runner) ensurePool() {
	if r.pool == nil {
		r.pool = make(chan struct{}, r.Workers)
	}
}

// runCells evaluates n independent simulation cells through compute,
// fanning them across the runner's global worker pool when it has one, and
// returns the results in index order — so the caller's output is
// independent of completion order and byte-identical to a sequential run.
// A figure goroutine that itself holds a pool slot lends it to the fan-out
// for the duration: whole figures and cells share one pool without nested
// acquisitions, which keeps the pool deadlock-free.
func runCells[T any](r *Runner, n int, compute func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if r.Workers <= 1 || n <= 1 {
		for i := range out {
			v, err := compute(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	r.ensurePool()
	if r.holding {
		<-r.pool
		defer func() { r.pool <- struct{}{} }()
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.pool <- struct{}{}
			defer func() { <-r.pool }()
			out[i], errs[i] = compute(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// New returns a runner writing to w.
func New(w io.Writer, quick bool, seed uint64) *Runner {
	return &Runner{W: w, Quick: quick, Seed: seed, bhCache: newBHCache()}
}

// Figures lists the available experiment names in order.
var Figures = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11",
	"topologies", "faults", "recovery",
	"ablation-embed", "ablation-arity", "ablation-remap", "ablation-replacement"}

// Run executes one figure by name.
func (r *Runner) Run(name string) error {
	switch name {
	case "1":
		return r.Fig1()
	case "2":
		return r.Fig2()
	case "3":
		return r.Fig3()
	case "4":
		return r.Fig4()
	case "5":
		return r.Fig5()
	case "6":
		return r.Fig6()
	case "7":
		return r.Fig7()
	case "8":
		return r.Fig8()
	case "9":
		return r.Fig9()
	case "10":
		return r.Fig10()
	case "11":
		return r.Fig11()
	case "topologies":
		return r.FigTopologies()
	case "faults":
		return r.FigFaults()
	case "recovery":
		return r.FigRecovery()
	case "ablation-embed":
		return r.AblationEmbedding()
	case "ablation-arity":
		return r.AblationArity()
	case "ablation-remap":
		return r.AblationRemap()
	case "ablation-replacement":
		return r.AblationReplacement()
	}
	return fmt.Errorf("experiments: unknown figure %q (have %v)", name, Figures)
}

// RunAll executes every figure, fanning them across a worker pool when
// Workers > 1. Figures are independent (each builds its machines from the
// runner's seed alone), so the parallel run produces byte-identical output.
func (r *Runner) RunAll() error { return r.RunFigures(Figures) }

// RunFigures executes the named figures in order, in parallel when
// Workers > 1 (output order and bytes are the same either way).
func (r *Runner) RunFigures(names []string) error {
	if r.Workers > 1 {
		return r.runParallel(names)
	}
	for _, f := range names {
		if err := r.Run(f); err != nil {
			return fmt.Errorf("figure %s: %w", f, err)
		}
		fmt.Fprintln(r.W)
	}
	return nil
}

func (r *Runner) runParallel(names []string) error {
	type result struct {
		buf bytes.Buffer
		err error
	}
	r.ensurePool()
	results := make([]result, len(names))
	var wg sync.WaitGroup
	for i, f := range names {
		wg.Add(1)
		go func(i int, f string) {
			defer wg.Done()
			r.pool <- struct{}{}
			defer func() { <-r.pool }()
			// Workers share the parent's slot pool (figures and their
			// in-figure fan-outs bounded together) and the parent's
			// Barnes-Hut cache: Figures 8-10 view the same deterministic
			// sweep, so one worker computes it and the others reuse the
			// rows.
			sub := &Runner{
				W: &results[i].buf, Quick: r.Quick, Seed: r.Seed,
				Workers: r.Workers, pool: r.pool, holding: true, bhCache: r.bhCache,
			}
			results[i].err = sub.Run(f)
		}(i, f)
	}
	wg.Wait()
	for i, f := range names {
		if results[i].err != nil {
			return fmt.Errorf("figure %s: %w", f, results[i].err)
		}
		if _, err := io.Copy(r.W, &results[i].buf); err != nil {
			return err
		}
		fmt.Fprintln(r.W)
	}
	return nil
}

// machine builds a machine for one experiment run through the public
// diva API (the machines here are exactly the ones embedders get).
func (r *Runner) machine(rows, cols int, f core.Factory, spec decomp.Spec) *core.Machine {
	return diva.MustNew(
		diva.WithMesh(rows, cols),
		diva.WithSeed(r.Seed),
		diva.WithTree(spec),
		diva.WithStrategy(f),
	)
}

// strategyUnderTest pairs a display name with its configuration.
type strategyUnderTest struct {
	name string
	spec decomp.Spec
	fact core.Factory
}

// atStrategy is the access tree on one of the paper's tree variants
// (decomp.Variants): the registry's access tree factory on that tree.
func atStrategy(spec decomp.Spec) strategyUnderTest {
	return strategyUnderTest{name: spec.Name() + " AT", spec: spec, fact: atFactory()}
}

func fhStrategy() strategyUnderTest {
	s := strategy.MustGet("fixedhome")
	return strategyUnderTest{name: "fixed home", spec: s.Tree, fact: s.Factory}
}

// atFactory and fhFactory resolve the registry factories for figures that
// pair a strategy with a non-default decomposition tree (e.g. the fixed
// home on the 2-ary tree of the sorting studies).
func atFactory() core.Factory { return strategy.MustGet("at4").Factory }
func fhFactory() core.Factory { return strategy.MustGet("fixedhome").Factory }

// --- formatting helpers ---

func (r *Runner) header(title string) {
	fmt.Fprintf(r.W, "%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// table prints aligned columns.
func table(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, 0)
	for _, row := range rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func pct(x float64) string { return fmt.Sprintf("%.0f%%", 100*x) }
