package experiments

import (
	"fmt"

	"diva"
)

// This file implements the recovery sweep ("recovery"): the matrix
// multiplication workload under a seeded fault schedule, run once in the
// oracle fault-tolerance mode (PR 8's network: failure knowledge is free,
// messages are held and retransmitted at the exact heal time) and once in
// the reactive mode (messages into the failure are dropped, senders detect
// by retransmission timeout and the strategy recovers on its own). The
// paper's strategy comparison is repeated on both modes and both network
// shapes, asking how much each strategy pays when nobody tells it the
// network broke.

// recoveryOptions selects the reactive mode for a recovery-sweep cell. The
// transport is tuned fast (0.5 ms initial timeout, 3 retries) so detection
// beats the ~20 ms outages and the strategies actually fail over, instead
// of the transport quietly retrying across the heal.
func recoveryOptions(reactive bool) []diva.Option {
	if !reactive {
		return nil
	}
	return []diva.Option{diva.WithRecovery(diva.RecoveryReactive), diva.WithAckTransport(500, 3, 2)}
}

// FigRecovery produces the "recovery" figure: oracle vs reactive fault
// tolerance across strategies and network shapes. The (topology, mode,
// strategy) cells are independent simulations and fan out across the
// runner's worker pool; every cell's schedule is drawn from the machine
// seed, so the assembled output is byte-identical to a sequential run.
func (r *Runner) FigRecovery() error {
	topos := []string{"mesh", "graph:degraded"}
	modes := []string{"oracle", "reactive"}
	strategies := []string{"fixedhome", "at4"}
	side := 8
	if r.Quick {
		side = 4
	}
	r.header(fmt.Sprintf("Recovery: oracle vs reactive fault tolerance (%dx%d)", side, side))
	fmt.Fprintf(r.W, "matmul under a seeded fault schedule (2 link outages, 1 churn). Oracle\n")
	fmt.Fprintf(r.W, "mode holds messages across outages; reactive mode drops them, detects by\n")
	fmt.Fprintf(r.W, "retransmission timeout (0.5 ms initial, 3 retries, 2x backoff) and lets\n")
	fmt.Fprintf(r.W, "the strategy recover: fixedhome fails homes over, the access tree\n")
	fmt.Fprintf(r.W, "re-issues over the re-embedded spanning forest.\n")

	nCells := len(topos) * len(modes) * len(strategies)
	cells, err := runCells(r, nCells, func(i int) (faultCell, error) {
		ti := i / (len(modes) * len(strategies))
		mi := i / len(strategies) % len(modes)
		si := i % len(strategies)
		return r.runFaultCell(topos[ti], side, faultRate{2, 1}, strategies[si], recoveryOptions(mi == 1)...)
	})
	if err != nil {
		return err
	}
	at := func(ti, mi, si int) faultCell {
		return cells[(ti*len(modes)+mi)*len(strategies)+si]
	}

	rows := [][]string{{"topology", "strategy", "mode", "time (s)", "congestion",
		"dropped", "retransmits", "acks", "detected", "failover+reissue"}}
	for ti, topo := range topos {
		for si, strat := range strategies {
			for mi, mode := range modes {
				c := at(ti, mi, si)
				rows = append(rows, []string{
					topo, strat, mode,
					f2(c.timeUS / 1e6), fmt.Sprint(c.congMax),
					fmt.Sprint(c.stats.Dropped), fmt.Sprint(c.stats.Retransmits),
					fmt.Sprint(c.stats.AckMsgs), fmt.Sprint(c.stats.Detected),
					fmt.Sprint(c.stats.Failovers + c.stats.Reissues),
				})
			}
		}
	}
	table(r.W, rows)

	// The price of not being told: reactive vs oracle elapsed time on the
	// same topology and strategy.
	fmt.Fprintln(r.W, "\nreactive/oracle time (same topology and strategy):")
	rows = [][]string{{"topology"}}
	for _, strat := range strategies {
		rows[0] = append(rows[0], strat)
	}
	for ti, topo := range topos {
		row := []string{topo}
		for si := range strategies {
			row = append(row, pct(at(ti, 1, si).timeUS/at(ti, 0, si).timeUS))
		}
		rows = append(rows, row)
	}
	table(r.W, rows)
	fmt.Fprintln(r.W, "\nReactive runs carry the transport's ack and retransmission traffic even")
	fmt.Fprintln(r.W, "where the network is healthy — that is the standing cost of detection —")
	fmt.Fprintln(r.W, "and pay detection latency where it is not. Both modes are deterministic:")
	fmt.Fprintln(r.W, "timeouts and backoff jitter are drawn from dedicated seed-derived RNG")
	fmt.Fprintln(r.W, "streams, so every cell is bit-reproducible from its seed alone.")
	return nil
}
