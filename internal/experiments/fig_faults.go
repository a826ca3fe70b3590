package experiments

import (
	"fmt"
	"io"

	"diva/internal/mesh"
	"diva/spec"
)

// This file implements the degradation sweep ("faults"): the matrix
// multiplication workload under rising fault rates, comparing the fixed
// home strategy against the 4-ary access tree on the healthy mesh and on
// an irregular degraded-mesh graph. The paper evaluates its strategy on a
// fault-free machine; this sweep asks how gracefully each strategy
// degrades when links fail and nodes churn mid-run — re-routes over the
// live spanning tree stretch paths, partitions hold messages until the
// schedule heals them, and the strategy's locality decides how much
// traffic crosses the damaged region at all.

// faultRate is one point of the sweep: a randomized schedule drawn from
// the machine seed with this many link outages and node churns.
type faultRate struct {
	links, churn int
}

// faultRates returns the sweep points (quick: up to 4 link outages).
func faultRates(quick bool) []faultRate {
	if quick {
		return []faultRate{{0, 0}, {2, 0}, {4, 1}}
	}
	return []faultRate{{0, 0}, {2, 0}, {4, 1}, {8, 2}}
}

// faultMatmul returns the cell of the fault figures that runs the DSM
// matrix square with strat on a side×side topo under a schedule drawn at
// rate (mean outage and start window at their defaults).
func (r *Runner) faultMatmul(topo string, side int, rate faultRate, strat string) cell {
	block := 256
	if r.Quick {
		block = 64
	}
	s := spec.Spec{Topology: topo, Rows: side, Cols: side, Strategy: strat, Seed: r.Seed,
		Workload: spec.Workload{Name: "matmul", Block: block}}
	if rate != (faultRate{}) {
		s.Fault = &spec.Fault{LinkFailures: rate.links, NodeChurn: rate.churn}
	}
	return cell{spec: s}
}

// faultSide is the machine side of the fault figures.
func (r *Runner) faultSide() int {
	if r.Quick {
		return 4
	}
	return 8
}

// figFaults produces the "faults" figure: strategy degradation under link
// failure and churn. Every cell's schedule is drawn from the machine seed.
func (r *Runner) figFaults() figure {
	topos := []string{"mesh", "graph:degraded"}
	strategies := []string{"fixedhome", "at4"}
	rates := faultRates(r.Quick)
	side := r.faultSide()
	var cells []cell
	for _, topo := range topos {
		for _, rate := range rates {
			for _, strat := range strategies {
				cells = append(cells, r.faultMatmul(topo, side, rate, strat))
			}
		}
	}
	return figure{cells: cells, print: func(w io.Writer, res []result) error {
		at := func(ti, ri, si int) result {
			return res[(ti*len(rates)+ri)*len(strategies)+si]
		}
		header(w, fmt.Sprintf("Faults: strategy degradation under link failure and churn (%dx%d)", side, side))
		fmt.Fprintf(w, "matmul under a seeded fault schedule: outages last %d us on average,\n", mesh.DefaultMeanDownUS)
		fmt.Fprintf(w, "starting inside the first %d us; churn takes a node's interface down.\n", mesh.DefaultHorizonUS)

		rows := [][]string{{"topology", "strategy", "link faults", "churn", "time (s)",
			"congestion", "availability", "stretch", "retry bytes"}}
		for ti, topo := range topos {
			for si, strat := range strategies {
				for ri, rate := range rates {
					c := at(ti, ri, si)
					rows = append(rows, []string{
						topo, strat, fmt.Sprint(rate.links), fmt.Sprint(rate.churn),
						f2(c.elapsedUS / 1e6), fmt.Sprint(c.cong.MaxMsgs),
						pct(c.faults.Availability()), f2(c.faults.Stretch()),
						fmt.Sprint(c.faults.RetryBytes),
					})
				}
			}
		}
		table(w, rows)

		// Degradation relative to each cell's own fault-free run: how much of
		// the access tree's advantage survives a damaged network.
		fmt.Fprintln(w, "\nslowdown vs fault-free (same topology and strategy):")
		rows = [][]string{{"topology", "link faults"}}
		rows[0] = append(rows[0], strategies...)
		rows[0] = append(rows[0], "at4/fixedhome time")
		for ti, topo := range topos {
			for ri, rate := range rates {
				if rate == (faultRate{}) {
					continue
				}
				row := []string{topo, fmt.Sprint(rate.links)}
				for si := range strategies {
					row = append(row, pct(at(ti, ri, si).elapsedUS/at(ti, 0, si).elapsedUS))
				}
				row = append(row, pct(at(ti, ri, 1).elapsedUS/at(ti, ri, 0).elapsedUS))
				rows = append(rows, row)
			}
		}
		table(w, rows)
		fmt.Fprintln(w, "\nFaults are applied in the network's deterministic routing order, so")
		fmt.Fprintln(w, "every cell is bit-reproducible from its seed alone. Re-routes ride")
		fmt.Fprintln(w, "the live spanning forest (stretch > 1); messages into a partition are")
		fmt.Fprintln(w, "held until the schedule heals it and retransmitted (retry bytes). Both")
		fmt.Fprintln(w, "strategies slow down by similar factors — the schedule hits links, not")
		fmt.Fprintln(w, "strategy structures — but the access tree's shorter, more local routes")
		fmt.Fprintln(w, "stretch further when forced onto the spanning forest: locality is a")
		fmt.Fprintln(w, "mixed blessing on a damaged machine.")
		return nil
	}}
}
