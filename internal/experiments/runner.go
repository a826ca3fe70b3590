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
// Every simulation of a figure is a cell: a spec.Spec run description,
// built and run through diva.FromSpec exactly as divasim and the service
// run it. Absolute times depend on the simulated machine's constants; the
// paper's qualitative shape — who wins, by what factor, how ratios scale
// with network size — is what these experiments reproduce.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"diva"
	"diva/internal/core/accesstree"
	"diva/internal/mesh"
	"diva/spec"
	"diva/strategy"
)

// Runner executes figures. Quick mode shrinks meshes and inputs so the full
// suite completes in seconds-to-minutes instead of tens of minutes. The
// zero value with W set is ready to use.
type Runner struct {
	W     io.Writer
	Quick bool
	Seed  uint64
	// Workers bounds the number of simulations running at once: the cells
	// of every requested figure are gathered in figure order, each distinct
	// run description once, and run on one pool of this many goroutines
	// (one when ≤ 1). A figure prints as soon as its cells are done, in
	// figure order, so the bytes written to W do not depend on Workers.
	Workers int
}

// New returns a runner writing to w.
func New(w io.Writer, quick bool, seed uint64) *Runner {
	return &Runner{W: w, Quick: quick, Seed: seed}
}

// Figures lists the available experiment names in order.
var Figures = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11",
	"topologies", "faults", "recovery",
	"ablation-embed", "ablation-arity", "ablation-remap", "ablation-replacement"}

// plans maps each figure name to the function describing it.
var plans = map[string]func(*Runner) figure{
	"1": (*Runner).fig1, "2": (*Runner).fig2, "5": (*Runner).fig5,
	"3": ratioFigure(fig3), "4": ratioFigure(fig4), "6": ratioFigure(fig6), "7": ratioFigure(fig7),
	"8": (*Runner).fig8, "9": (*Runner).fig9, "10": (*Runner).fig10, "11": (*Runner).fig11,
	"topologies": (*Runner).figTopologies,
	"faults":     (*Runner).figFaults,
	"recovery":   (*Runner).figRecovery,

	"ablation-embed":       (*Runner).ablationEmbedding,
	"ablation-arity":       (*Runner).ablationArity,
	"ablation-remap":       (*Runner).ablationRemap,
	"ablation-replacement": (*Runner).ablationReplacement,
}

// A figure is the cells it measures and the printer that reads their
// results, given in cell order.
type figure struct {
	cells []cell
	print func(w io.Writer, res []result) error
}

// A cell is one simulation: a run description, plus the access tree remap
// threshold of the remap ablation, the one machine no registered strategy
// name spells.
type cell struct {
	spec  spec.Spec
	remap int
}

// result is what a finished cell reports: everything a figure prints.
type result struct {
	elapsedUS float64         // the workload's simulated execution time
	cong      diva.Congestion // whole-run link traffic
	// total and phases are the collector's measured steps (Barnes-Hut
	// only; the other workloads record no measured interval).
	total     diva.Metrics
	phases    map[string]diva.Metrics
	faults    mesh.FaultStats
	evictions uint64
	remaps    int
}

// key identifies the cell's run: equal keys describe the same simulation.
func (c cell) key() string {
	b, err := json.Marshal(c.spec.Normalized())
	if err != nil {
		panic(err) // a Spec always encodes
	}
	return fmt.Sprintf("%d %s", c.remap, b)
}

// run builds the cell's machine and workload through diva.FromSpec and
// runs the workload to completion.
func (c cell) run() (result, error) {
	var extra []diva.Option
	if c.remap > 0 {
		extra = append(extra, diva.WithStrategy(strategy.AccessTree(strategy.AccessTreeOptions{
			RandomEmbedding: true, RemapThreshold: c.remap,
		})))
	}
	m, w, err := diva.FromSpec(c.spec, extra...)
	if err != nil {
		return result{}, err
	}
	col := diva.NewCollector(m)
	res, err := w.Run(m, col)
	if err != nil {
		return result{}, err
	}
	out := result{
		elapsedUS: res.ElapsedUS,
		cong:      m.Net.Congestion(nil),
		faults:    m.Net.FaultStats(),
		evictions: diva.TotalEvictions(m),
		remaps:    accesstree.TotalRemaps(m.Strat),
	}
	if col.Enabled() {
		out.total = col.Total()
		out.phases = make(map[string]diva.Metrics)
		for _, name := range col.PhaseNames() {
			out.phases[name], _ = col.Phase(name)
		}
	}
	return out, nil
}

// Run executes one figure by name.
func (r *Runner) Run(name string) error { return r.run([]string{name}, false) }

// RunAll executes every figure.
func (r *Runner) RunAll() error { return r.RunFigures(Figures) }

// RunFigures executes the named figures, each followed by a blank line.
func (r *Runner) RunFigures(names []string) error { return r.run(names, true) }

// job is one distinct cell of a run and, once done is closed, its outcome.
type job struct {
	cell cell
	res  result
	err  error
	done chan struct{}
}

// run gathers the cells of the named figures in figure order, runs each
// distinct one once on a pool of r.Workers goroutines, and prints every
// figure as soon as its cells are done, in figure order.
func (r *Runner) run(names []string, blankAfter bool) error {
	figs := make([]figure, len(names))
	for i, name := range names {
		plan, ok := plans[name]
		if !ok {
			return fmt.Errorf("experiments: unknown figure %q (have %v)", name, Figures)
		}
		figs[i] = plan(r)
	}
	// Figures list their cells from the smallest run up, and a figure
	// prints only once all its cells are done: queueing each figure's
	// cells last-first starts the long runs early, so the pool does not
	// end on one long cell while the other workers idle.
	var jobs []*job
	byKey := make(map[string]*job)
	uses := make([][]*job, len(figs))
	for i, f := range figs {
		uses[i] = make([]*job, len(f.cells))
		for n := len(f.cells) - 1; n >= 0; n-- {
			c := f.cells[n]
			k := c.key()
			j := byKey[k]
			if j == nil {
				j = &job{cell: c, done: make(chan struct{})}
				byKey[k] = j
				jobs = append(jobs, j)
			}
			uses[i][n] = j
		}
	}

	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for range min(max(r.Workers, 1), len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				j.res, j.err = j.cell.run()
				close(j.done)
			}
		}()
	}
	// On an error, workers finish the cells they hold and start no more.
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	for i, f := range figs {
		res := make([]result, len(uses[i]))
		for k, j := range uses[i] {
			<-j.done
			if j.err != nil {
				return fmt.Errorf("figure %s: %w", names[i], j.err)
			}
			res[k] = j.res
		}
		if err := f.print(r.W, res); err != nil {
			return fmt.Errorf("figure %s: %w", names[i], err)
		}
		if blankAfter {
			fmt.Fprintln(r.W)
		}
	}
	return nil
}

// --- formatting helpers ---

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
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
