package experiments

import (
	"fmt"
	"io"

	"diva/spec"
)

// ablationMatmul returns the quick or full mesh side and block of the
// matmul ablations, and the cell running the DSM matrix square under strat.
func (r *Runner) ablationMatmul() (side, block int, cellOf func(strat string) cell) {
	side, block = 16, 1024
	if r.Quick {
		side, block = 8, 256
	}
	return side, block, func(strat string) cell {
		return cell{spec: spec.Spec{Rows: side, Cols: side, Strategy: strat, Seed: r.Seed,
			Workload: spec.Workload{Name: "matmul", Block: block}}}
	}
}

// ablationEmbedding tests design decision D1: the paper's implementation
// embeds access trees with its modular ("modified") embedding instead of
// the fully random embedding of the theoretical analysis. The modular
// embedding maps only the root at random and derives every other node from
// its parent's position (row i mod m1, column j mod m2 of the child's
// submesh), which shortens the expected parent-child distance; the random
// one maps every node anywhere in its submesh.
func (r *Runner) ablationEmbedding() figure {
	side, block, cellOf := r.ablationMatmul()
	modes := []struct{ label, strat string }{
		{"modular (paper)", "at4"},
		{"fully random", "atrandom"},
	}
	var cells []cell
	for _, mode := range modes {
		cells = append(cells, cellOf(mode.strat))
	}
	return figure{cells: cells, print: func(w io.Writer, res []result) error {
		header(w, fmt.Sprintf("Ablation: modular vs random access tree embedding (matmul, %dx%d, block %d)", side, side, block))
		rows := [][]string{{"embedding", "congestion(bytes)", "comm time(us)"}}
		for i, mode := range modes {
			rows = append(rows, []string{mode.label, fmt.Sprint(res[i].cong.MaxBytes), f1(res[i].elapsedUS)})
		}
		table(w, rows)
		fmt.Fprintln(w, "\nThe modular embedding shortens expected parent-child distances; the")
		fmt.Fprintln(w, "random embedding matches the theoretical analysis but routes further.")
		return nil
	}}
}

// ablationArity sweeps the access tree arity on the matrix multiplication,
// reproducing the paper's §3.1 finding: lower degree gives lower
// congestion, but the 4-ary tree gives the best time (startup compromise).
func (r *Runner) ablationArity() figure {
	side, block, cellOf := r.ablationMatmul()
	arities := []struct{ label, strat string }{
		{"2-ary", "at2"}, {"2-4-ary", "at2k4"}, {"4-ary", "at4"}, {"4-16-ary", "at4k16"}, {"16-ary", "at16"},
		{"fixed home (=P-ary)", "fixedhome"},
	}
	var cells []cell
	for _, a := range arities {
		cells = append(cells, cellOf(a.strat))
	}
	return figure{cells: cells, print: func(w io.Writer, res []result) error {
		header(w, fmt.Sprintf("Ablation: access tree arity (matmul, %dx%d, block %d)", side, side, block))
		rows := [][]string{{"arity", "congestion(bytes)", "comm time(us)"}}
		for i, a := range arities {
			rows = append(rows, []string{a.label, fmt.Sprint(res[i].cong.MaxBytes), f1(res[i].elapsedUS)})
		}
		table(w, rows)
		fmt.Fprintln(w, "\nPaper: the smaller the degree, the smaller the congestion; the 4-ary")
		fmt.Fprintln(w, "tree is the best compromise between congestion and startups.")
		return nil
	}}
}

// ablationRemap tests design decision D3: the paper's implementation omits
// the remapping step of the theoretical strategy, which migrates access
// tree nodes that handle too many accesses (§2: "we omit this remapping as
// we believe that the constant overhead induced by this procedure will not
// be retained in practice"). The ablation asks whether remapping pays off
// in practice. The workload is the Barnes-Hut tree build, whose repeatedly
// rewritten top cells are exactly the "too many accesses to the same node"
// case. Remapping runs on the random embedding of the analysis it belongs
// to.
func (r *Runner) ablationRemap() figure {
	side, n := 4, 600
	if !r.Quick {
		side, n = 8, 3000
	}
	modes := []struct {
		label string
		remap int
	}{
		{"random embedding, no remap (paper's D3 choice)", 0},
		{"random embedding, remap@256 accesses", 256},
		{"random embedding, remap@64 accesses", 64},
	}
	var cells []cell
	for _, mode := range modes {
		c := r.barnesHut(side, side, "atrandom", n, 4, 1)
		c.spec.Tree, c.remap = "4-ary", mode.remap
		cells = append(cells, c)
	}
	return figure{cells: cells, print: func(w io.Writer, res []result) error {
		header(w, fmt.Sprintf("Ablation: theoretical remapping of hot tree nodes (Barnes-Hut, %dx%d, N=%d)", side, side, n))
		rows := [][]string{{"variant", "congestion(msgs)", "time(s)", "migrations"}}
		for i, mode := range modes {
			tot := res[i].total
			rows = append(rows, []string{mode.label, fmt.Sprint(tot.Cong.MaxMsgs), f1(tot.TimeUS / 1e6), fmt.Sprint(res[i].remaps)})
		}
		table(w, rows)
		fmt.Fprintln(w, "\nPaper (§2): \"we omit this remapping as we believe that the constant")
		fmt.Fprintln(w, "overhead induced by this procedure will not be retained in practice.\"")
		return nil
	}}
}

// ablationReplacement demonstrates the replacement behaviour the paper
// mentions for the 2-ary access tree at 60,000 bodies ("the increase of
// the congestion for the 2-ary access tree from 50,000 to 60,000 bodies is
// due to copy replacement"): with bounded per-node memory, LRU replacement
// kicks in and congestion rises because copies have to be re-fetched.
func (r *Runner) ablationReplacement() figure {
	side, n := 4, 600
	if !r.Quick {
		side, n = 8, 4000
	}
	capacities := []int{0, 512 * 1024, 96 * 1024, 48 * 1024}
	var cells []cell
	for _, capacity := range capacities {
		c := r.barnesHut(side, side, "at2", n, 4, 1)
		c.spec.CacheCapacity = capacity
		cells = append(cells, c)
	}
	return figure{cells: cells, print: func(w io.Writer, res []result) error {
		header(w, fmt.Sprintf("Ablation: bounded memory and LRU replacement (Barnes-Hut, %dx%d, N=%d, 2-ary)", side, side, n))
		rows := [][]string{{"capacity/node", "congestion(msgs)", "time(s)", "evictions"}}
		for i, capacity := range capacities {
			label := "unbounded"
			if capacity > 0 {
				label = fmt.Sprintf("%d KB", capacity/1024)
			}
			tot := res[i].total
			rows = append(rows, []string{label, fmt.Sprint(tot.Cong.MaxMsgs), f1(tot.TimeUS / 1e6), fmt.Sprint(res[i].evictions)})
		}
		table(w, rows)
		fmt.Fprintln(w, "\nPaper (§3.3): replacement starts for the 2-ary tree at 60,000 bodies and")
		fmt.Fprintln(w, "shows as a congestion increase; tighter memory means more re-fetches.")
		return nil
	}}
}
