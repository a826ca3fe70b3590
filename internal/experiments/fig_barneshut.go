package experiments

import (
	"fmt"
	"io"

	"diva"
	"diva/spec"
)

// bhStrategies are the five strategies of Figures 8-10 and the topologies
// sweep, in the paper's legend order, with their legend labels.
var bhStrategies = []struct{ name, label string }{
	{"fixedhome", "fixed home"},
	{"at16", "16-ary AT"},
	{"at4k16", "4-16-ary AT"},
	{"at4", "4-ary AT"},
	{"at2", "2-ary AT"},
}

// bhFH and bhAT4 index the fixed home and the 4-ary access tree in
// bhStrategies.
const bhFH, bhAT4 = 0, 3

// The Barnes-Hut phases the figures report, as the workload names them.
const phaseBuild, phaseForce = "build", "force"

// barnesHut returns the cell of one Barnes-Hut run on a rows×cols mesh:
// steps simulated steps, measured from step measureFrom, local
// computation charged.
func (r *Runner) barnesHut(rows, cols int, strat string, bodies, steps, measureFrom int) cell {
	return cell{spec: spec.Spec{Rows: rows, Cols: cols, Strategy: strat, Seed: r.Seed,
		Workload: spec.Workload{Name: "barneshut", Bodies: bodies, Steps: steps, MeasureFrom: measureFrom}}}
}

// bhSteps returns the simulated steps and the first measured step of the
// Barnes-Hut figures: the paper simulates 7 steps and measures the last 5.
func (r *Runner) bhSteps() (steps, measureFrom int) {
	if r.Quick {
		return 4, 2
	}
	return 7, 2
}

// bhSizes returns the body counts of the sweep.
func (r *Runner) bhSizes() []int {
	if r.Quick {
		return []int{1000, 2000, 3000}
	}
	return []int{10000, 20000, 30000, 40000, 50000, 60000}
}

func (r *Runner) bhMeshSide() int {
	if r.Quick {
		return 8
	}
	return 16
}

// bhFigure is the strategy × body-count sweep Figures 8, 9 and 10 view:
// the cells in strategy-major order and a printer of one metric per cell
// around a figure's own header and notes. The three figures describe the
// same cells, so a run of all three simulates them once.
func (r *Runner) bhFigure(title string, get func(result) diva.Metrics, notes func(io.Writer, []result)) figure {
	side, sizes := r.bhMeshSide(), r.bhSizes()
	steps, from := r.bhSteps()
	var cells []cell
	for _, s := range bhStrategies {
		for _, n := range sizes {
			cells = append(cells, r.barnesHut(side, side, s.name, n, steps, from))
		}
	}
	return figure{cells: cells, print: func(w io.Writer, res []result) error {
		header(w, fmt.Sprintf(title, side))
		head := []string{"bodies"}
		for _, s := range bhStrategies {
			head = append(head, s.label)
		}
		for _, part := range []struct {
			title string
			value func(diva.Metrics) string
		}{
			{"congestion (1000 messages):", func(m diva.Metrics) string { return f1(float64(m.Cong.MaxMsgs) / 1000) }},
			{"\nexecution time (seconds):", func(m diva.Metrics) string { return f1(m.TimeUS / 1e6) }},
		} {
			fmt.Fprintln(w, part.title)
			rows := [][]string{head}
			for i, n := range sizes {
				row := []string{fmt.Sprint(n)}
				for si := range bhStrategies {
					row = append(row, part.value(get(res[si*len(sizes)+i])))
				}
				rows = append(rows, row)
			}
			table(w, rows)
		}
		notes(w, res)
		return nil
	}}
}

// fig8 reproduces Figure 8: Barnes-Hut congestion (in messages) and
// execution time versus the number of bodies, for the fixed home strategy
// and the 16-, 4-16-, 4- and 2-ary access trees on a 16×16 mesh
// (7 simulated steps, the last 5 measured).
func (r *Runner) fig8() figure {
	return r.bhFigure("Figure 8: Barnes-Hut on a %[1]dx%[1]d mesh — totals over the measured steps",
		func(c result) diva.Metrics { return c.total },
		func(w io.Writer, _ []result) {
			fmt.Fprintln(w, "\nPaper shape: congestion FH > 16-ary > 4-16-ary > 4-ary > 2-ary;")
			fmt.Fprintln(w, "execution time: 4-ary best (startup/congestion compromise), FH worst.")
		})
}

// fig9 reproduces Figure 9: the tree-building phase.
func (r *Runner) fig9() figure {
	return r.bhFigure("Figure 9: Barnes-Hut tree building phase (%[1]dx%[1]d mesh)",
		func(c result) diva.Metrics { return c.phases[phaseBuild] },
		func(w io.Writer, _ []result) {
			fmt.Fprintln(w, "\nPaper shape: the access trees distribute the copy of the (hot) root via a")
			fmt.Fprintln(w, "multicast tree; the fixed home serves every processor one by one, giving a")
			fmt.Fprintln(w, "large congestion offset that grows with the number of processors.")
		})
}

// fig10 reproduces Figure 10: the force-computation phase, including the
// local computation time.
func (r *Runner) fig10() figure {
	sizes := r.bhSizes()
	return r.bhFigure("Figure 10: Barnes-Hut force computation phase (%[1]dx%[1]d mesh)",
		func(c result) diva.Metrics { return c.phases[phaseForce] },
		func(w io.Writer, res []result) {
			// Local computation is strategy-independent; report it from the
			// 4-ary runs.
			fmt.Fprintln(w, "\nlocal computation time in the force phase:")
			rows := [][]string{{"bodies", "compute(s)", "phase(s)", "fraction"}}
			for i, n := range sizes {
				force := res[bhAT4*len(sizes)+i].phases[phaseForce]
				rows = append(rows, []string{
					fmt.Sprint(n),
					f1(force.MaxComputeUS / 1e6),
					f1(force.TimeUS / 1e6),
					pct(force.MaxComputeUS / force.TimeUS),
				})
			}
			table(w, rows)
			fmt.Fprintln(w, "\nPaper: at 60,000 bodies the 4-ary tree spends ~25% of the force phase on")
			fmt.Fprintln(w, "communication, the fixed home ~33%; cache hit ratios are ~99%.")
		})
}

// fig11Paper: values reconstructed from Figure 11 (N = 200·P, 4-8-ary
// access tree vs fixed home): congestion in 1000 messages, time in
// seconds, local computation time of the force phase in seconds.
var fig11Paper = map[int][5]float64{
	// P: {AT cong, FH cong, AT time, FH time, local compute}
	64:  {97, 187, 519, 628, 299},
	128: {145, 408, 611, 795, 315},
	256: {166, 471, 764, 1166, 398},
	512: {249, 1014, 954, 1939, 458},
}

// fig11 reproduces Figure 11: scaling the Barnes-Hut simulation with
// N = 200·P over meshes 8×8, 8×16, 16×16 and 16×32, comparing the 4-8-ary
// access tree with the fixed home strategy.
func (r *Runner) fig11() figure {
	meshes := [][2]int{{8, 8}, {8, 16}, {16, 16}, {16, 32}}
	perProc := 200
	if r.Quick {
		meshes = [][2]int{{4, 4}, {4, 8}, {8, 8}}
		perProc = 50
	}
	steps, from := r.bhSteps()
	var cells []cell
	for _, ms := range meshes {
		n := perProc * ms[0] * ms[1]
		cells = append(cells,
			r.barnesHut(ms[0], ms[1], "at4k8", n, steps, from),
			r.barnesHut(ms[0], ms[1], "fixedhome", n, steps, from))
	}
	return figure{cells: cells, print: func(w io.Writer, res []result) error {
		header(w, fmt.Sprintf("Figure 11: Barnes-Hut scaling, N = %d*P (4-8-ary access tree vs fixed home)", perProc))
		rows := [][]string{{"mesh", "P", "N",
			"congAT(k)", "congFH(k)", "AT/FH",
			"timeAT(s)", "timeFH(s)", "AT/FH", "compute(s)",
			"", "paper: congAT", "congFH", "timeAT", "timeFH", "compute"}}
		for i, ms := range meshes {
			p := ms[0] * ms[1]
			at, fh := res[2*i], res[2*i+1]
			paper := []string{"", "", "", "", ""}
			if pv, ok := fig11Paper[p]; ok && !r.Quick {
				paper = []string{f1(pv[0]), f1(pv[1]), f1(pv[2]), f1(pv[3]), f1(pv[4])}
			}
			rows = append(rows, []string{
				fmt.Sprintf("%dx%d", ms[0], ms[1]), fmt.Sprint(p), fmt.Sprint(perProc * p),
				f1(float64(at.total.Cong.MaxMsgs) / 1000),
				f1(float64(fh.total.Cong.MaxMsgs) / 1000),
				pct(float64(at.total.Cong.MaxMsgs) / float64(fh.total.Cong.MaxMsgs)),
				f1(at.total.TimeUS / 1e6), f1(fh.total.TimeUS / 1e6),
				pct(at.total.TimeUS / fh.total.TimeUS),
				f1(at.phases[phaseForce].MaxComputeUS / 1e6),
				"|", paper[0], paper[1], paper[2], paper[3], paper[4],
			})
		}
		table(w, rows)
		fmt.Fprintln(w, "\nPaper: the access tree's advantage grows with the number of processors;")
		fmt.Fprintln(w, "at 512 processors it is ~2x faster overall and ~3x on communication time.")
		return nil
	}}
}
