package experiments

import (
	"fmt"
	"sync"

	"diva/internal/apps/barneshut"
	"diva/internal/decomp"
	"diva/internal/metrics"
)

// bhRow is one Barnes-Hut measurement: total and per-phase metrics for one
// (strategy, N) configuration, over the measured (last 5 of 7) steps.
type bhRow struct {
	strategy string
	n        int
	total    metrics.Result
	build    metrics.Result
	force    metrics.Result
}

// bhCache memoizes Barnes-Hut runs: Figures 8, 9 and 10 are three views of
// the same strategy sweep. The cache is shared between the worker clones of
// a parallel RunAll, with singleflight deduplication so concurrent figures
// wait for an in-flight run instead of recomputing it (the results are
// deterministic, so whoever computes a key stores the same rows).
type bhCache struct {
	mu       sync.Mutex
	rows     map[string]bhRow
	inflight map[string]chan struct{}
}

func newBHCache() *bhCache {
	return &bhCache{rows: make(map[string]bhRow), inflight: make(map[string]chan struct{})}
}

// getOrCompute returns the cached row for key, waiting for a concurrent
// computation of the same key, or computing (and storing) it itself.
func (c *bhCache) getOrCompute(key string, compute func() (bhRow, error)) (bhRow, error) {
	c.mu.Lock()
	for {
		if row, ok := c.rows[key]; ok {
			c.mu.Unlock()
			return row, nil
		}
		ch, busy := c.inflight[key]
		if !busy {
			break
		}
		c.mu.Unlock()
		<-ch
		c.mu.Lock()
	}
	ch := make(chan struct{})
	c.inflight[key] = ch
	c.mu.Unlock()

	row, err := compute()

	c.mu.Lock()
	if err == nil {
		c.rows[key] = row
	}
	delete(c.inflight, key)
	close(ch)
	c.mu.Unlock()
	return row, err
}

// bhStrategies are the five strategies of Figures 8-10, in the paper's
// legend order.
func bhStrategies() []strategyUnderTest {
	return []strategyUnderTest{
		fhStrategy(),
		atStrategy(decomp.Ary16),
		atStrategy(decomp.Ary4K16),
		atStrategy(decomp.Ary4),
		atStrategy(decomp.Ary2),
	}
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

// runBarnesHut executes one configuration and extracts the metrics.
func (r *Runner) runBarnesHut(rows, cols, n int, s strategyUnderTest) (bhRow, error) {
	key := fmt.Sprintf("%dx%d/%d/%s", rows, cols, n, s.name)
	return r.bhCache.getOrCompute(key, func() (bhRow, error) {
		m := r.machine(rows, cols, s.fact, s.spec)
		col := metrics.New(m.Net)
		steps, measureFrom := 7, 2
		if r.Quick {
			steps, measureFrom = 4, 2
		}
		_, err := barneshut.Run(m, barneshut.Config{
			N: n, Steps: steps, MeasureFrom: measureFrom,
			Seed: r.Seed, WithCompute: true,
		}, col)
		if err != nil {
			return bhRow{}, err
		}
		row := bhRow{strategy: s.name, n: n, total: col.Total()}
		if b, ok := col.Phase(barneshut.PhaseBuild); ok {
			row.build = b
		}
		if f, ok := col.Phase(barneshut.PhaseForce); ok {
			row.force = f
		}
		return row, nil
	})
}

// bhSweep runs (and caches) the full Figures 8-10 sweep. The
// (strategy, N) cells are independent simulations, so when the runner has
// workers they fan out across the shared global pool first; the rows are
// then assembled from the cache in deterministic order, making the result
// identical to a sequential sweep.
func (r *Runner) bhSweep() (map[string][]bhRow, error) {
	side := r.bhMeshSide()
	strategies := bhStrategies()
	sizes := r.bhSizes()
	if r.Workers > 1 {
		_, err := runCells(r, len(strategies)*len(sizes), func(i int) (bhRow, error) {
			return r.runBarnesHut(side, side, sizes[i%len(sizes)], strategies[i/len(sizes)])
		})
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string][]bhRow)
	for _, s := range strategies {
		for _, n := range sizes {
			row, err := r.runBarnesHut(side, side, n, s)
			if err != nil {
				return nil, err
			}
			out[s.name] = append(out[s.name], row)
		}
	}
	return out, nil
}

// Fig8 reproduces Figure 8: Barnes-Hut congestion (in messages) and
// execution time versus the number of bodies, for the fixed home strategy
// and the 16-, 4-16-, 4- and 2-ary access trees on a 16×16 mesh
// (7 simulated steps, the last 5 measured).
func (r *Runner) Fig8() error {
	side := r.bhMeshSide()
	r.header(fmt.Sprintf("Figure 8: Barnes-Hut on a %dx%d mesh — totals over the measured steps", side, side))
	sweep, err := r.bhSweep()
	if err != nil {
		return err
	}
	r.printBH(sweep, func(row bhRow) (uint64, float64) {
		return row.total.Cong.MaxMsgs, row.total.TimeUS
	}, "")
	fmt.Fprintln(r.W, "\nPaper shape: congestion FH > 16-ary > 4-16-ary > 4-ary > 2-ary;")
	fmt.Fprintln(r.W, "execution time: 4-ary best (startup/congestion compromise), FH worst.")
	return nil
}

// Fig9 reproduces Figure 9: the tree-building phase.
func (r *Runner) Fig9() error {
	side := r.bhMeshSide()
	r.header(fmt.Sprintf("Figure 9: Barnes-Hut tree building phase (%dx%d mesh)", side, side))
	sweep, err := r.bhSweep()
	if err != nil {
		return err
	}
	r.printBH(sweep, func(row bhRow) (uint64, float64) {
		return row.build.Cong.MaxMsgs, row.build.TimeUS
	}, "")
	fmt.Fprintln(r.W, "\nPaper shape: the access trees distribute the copy of the (hot) root via a")
	fmt.Fprintln(r.W, "multicast tree; the fixed home serves every processor one by one, giving a")
	fmt.Fprintln(r.W, "large congestion offset that grows with the number of processors.")
	return nil
}

// Fig10 reproduces Figure 10: the force-computation phase, including the
// local computation time.
func (r *Runner) Fig10() error {
	side := r.bhMeshSide()
	r.header(fmt.Sprintf("Figure 10: Barnes-Hut force computation phase (%dx%d mesh)", side, side))
	sweep, err := r.bhSweep()
	if err != nil {
		return err
	}
	r.printBH(sweep, func(row bhRow) (uint64, float64) {
		return row.force.Cong.MaxMsgs, row.force.TimeUS
	}, "")
	// Local computation (strategy-independent; report from the 4-ary runs).
	fmt.Fprintln(r.W, "\nlocal computation time in the force phase:")
	rows := [][]string{{"bodies", "compute(s)", "phase(s)", "fraction"}}
	for _, row := range sweep["4-ary AT"] {
		rows = append(rows, []string{
			fmt.Sprint(row.n),
			f1(row.force.MaxComputeUS / 1e6),
			f1(row.force.TimeUS / 1e6),
			pct(row.force.MaxComputeUS / row.force.TimeUS),
		})
	}
	table(r.W, rows)
	fmt.Fprintln(r.W, "\nPaper: at 60,000 bodies the 4-ary tree spends ~25% of the force phase on")
	fmt.Fprintln(r.W, "communication, the fixed home ~33%; cache hit ratios are ~99%.")
	return nil
}

// printBH prints congestion and time tables for a metric extractor.
func (r *Runner) printBH(sweep map[string][]bhRow, get func(bhRow) (uint64, float64), note string) {
	strategies := bhStrategies()
	head := []string{"bodies"}
	for _, s := range strategies {
		head = append(head, s.name)
	}
	fmt.Fprintln(r.W, "congestion (1000 messages):")
	rows := [][]string{head}
	for i, n := range r.bhSizes() {
		row := []string{fmt.Sprint(n)}
		for _, s := range strategies {
			c, _ := get(sweep[s.name][i])
			row = append(row, f1(float64(c)/1000))
		}
		rows = append(rows, row)
	}
	table(r.W, rows)

	fmt.Fprintln(r.W, "\nexecution time (seconds):")
	rows = [][]string{head}
	for i, n := range r.bhSizes() {
		row := []string{fmt.Sprint(n)}
		for _, s := range strategies {
			_, t := get(sweep[s.name][i])
			row = append(row, f1(t/1e6))
		}
		rows = append(rows, row)
	}
	table(r.W, rows)
	if note != "" {
		fmt.Fprintln(r.W, note)
	}
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

// Fig11 reproduces Figure 11: scaling the Barnes-Hut simulation with
// N = 200·P over meshes 8×8, 8×16, 16×16 and 16×32, comparing the 4-8-ary
// access tree with the fixed home strategy.
func (r *Runner) Fig11() error {
	meshes := [][2]int{{8, 8}, {8, 16}, {16, 16}, {16, 32}}
	perProc := 200
	if r.Quick {
		meshes = [][2]int{{4, 4}, {4, 8}, {8, 8}}
		perProc = 50
	}
	r.header(fmt.Sprintf("Figure 11: Barnes-Hut scaling, N = %d*P (4-8-ary access tree vs fixed home)", perProc))
	at := atStrategy(decomp.Ary4K8)
	fh := fhStrategy()
	rows := [][]string{{"mesh", "P", "N",
		"congAT(k)", "congFH(k)", "AT/FH",
		"timeAT(s)", "timeFH(s)", "AT/FH", "compute(s)",
		"", "paper: congAT", "congFH", "timeAT", "timeFH", "compute"}}
	for _, ms := range meshes {
		p := ms[0] * ms[1]
		n := perProc * p
		ra, err := r.runBarnesHut(ms[0], ms[1], n, at)
		if err != nil {
			return err
		}
		rf, err := r.runBarnesHut(ms[0], ms[1], n, fh)
		if err != nil {
			return err
		}
		paper := []string{"", "", "", "", ""}
		if pv, ok := fig11Paper[p]; ok && !r.Quick {
			paper = []string{f1(pv[0]), f1(pv[1]), f1(pv[2]), f1(pv[3]), f1(pv[4])}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%dx%d", ms[0], ms[1]), fmt.Sprint(p), fmt.Sprint(n),
			f1(float64(ra.total.Cong.MaxMsgs) / 1000),
			f1(float64(rf.total.Cong.MaxMsgs) / 1000),
			pct(float64(ra.total.Cong.MaxMsgs) / float64(rf.total.Cong.MaxMsgs)),
			f1(ra.total.TimeUS / 1e6), f1(rf.total.TimeUS / 1e6),
			pct(ra.total.TimeUS / rf.total.TimeUS),
			f1(ra.force.MaxComputeUS / 1e6),
			"|", paper[0], paper[1], paper[2], paper[3], paper[4],
		})
	}
	table(r.W, rows)
	fmt.Fprintln(r.W, "\nPaper: the access tree's advantage grows with the number of processors;")
	fmt.Fprintln(r.W, "at 512 processors it is ~2x faster overall and ~3x on communication time.")
	return nil
}
