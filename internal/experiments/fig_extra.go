package experiments

import (
	"fmt"

	"diva"
	"diva/internal/apps/barneshut"
	"diva/internal/core/accesstree"
	"diva/internal/decomp"
	"diva/internal/metrics"
)

// AblationReplacement demonstrates the replacement behaviour the paper
// mentions for the 2-ary access tree at 60,000 bodies ("the increase of
// the congestion for the 2-ary access tree from 50,000 to 60,000 bodies is
// due to copy replacement"): with bounded per-node memory, LRU replacement
// kicks in and congestion rises because copies have to be re-fetched.
func (r *Runner) AblationReplacement() error {
	side := 4
	n := 600
	steps := 4
	if !r.Quick {
		side = 8
		n = 4000
	}
	r.header(fmt.Sprintf("Ablation: bounded memory and LRU replacement (Barnes-Hut, %dx%d, N=%d, 2-ary)", side, side, n))
	rows := [][]string{{"capacity/node", "congestion(msgs)", "time(s)", "evictions"}}
	for _, capacity := range []int{0, 512 * 1024, 96 * 1024, 48 * 1024} {
		m := diva.MustNew(
			diva.WithMesh(side, side),
			diva.WithSeed(r.Seed),
			diva.WithTree(decomp.Ary2),
			diva.WithStrategyName("at2"),
			diva.WithCacheCapacity(capacity),
		)
		col := metrics.New(m.Net)
		_, err := barneshut.Run(m, barneshut.Config{
			N: n, Steps: steps, MeasureFrom: 1, Seed: r.Seed, WithCompute: true,
		}, col)
		if err != nil {
			return err
		}
		ev := uint64(0)
		for node := 0; node < m.P(); node++ {
			ev += m.Cache(node).Evictions()
		}
		tot := col.Total()
		label := "unbounded"
		if capacity > 0 {
			label = fmt.Sprintf("%d KB", capacity/1024)
		}
		rows = append(rows, []string{
			label,
			fmt.Sprint(tot.Cong.MaxMsgs),
			f1(tot.TimeUS / 1e6),
			fmt.Sprint(ev),
		})
	}
	table(r.W, rows)
	fmt.Fprintln(r.W, "\nPaper (§3.3): replacement starts for the 2-ary tree at 60,000 bodies and")
	fmt.Fprintln(r.W, "shows as a congestion increase; tighter memory means more re-fetches.")
	return nil
}

// AblationRemap evaluates the remapping step of the theoretical strategy
// that the paper's implementation omits (design decision D3): whether
// migrating over-accessed access tree nodes pays off in practice. The
// workload is the Barnes-Hut tree build, whose repeatedly rewritten top
// cells are exactly the "too many accesses to the same node" case.
func (r *Runner) AblationRemap() error {
	side := 4
	n := 600
	if !r.Quick {
		side = 8
		n = 3000
	}
	r.header(fmt.Sprintf("Ablation: theoretical remapping of hot tree nodes (Barnes-Hut, %dx%d, N=%d)", side, side, n))
	rows := [][]string{{"variant", "congestion(msgs)", "time(s)", "migrations"}}
	for _, mode := range []struct {
		name string
		opts accesstree.Options
	}{
		{"random embedding, no remap (paper's D3 choice)", accesstree.Options{RandomEmbedding: true}},
		{"random embedding, remap@256 accesses", accesstree.Options{RandomEmbedding: true, RemapThreshold: 256}},
		{"random embedding, remap@64 accesses", accesstree.Options{RandomEmbedding: true, RemapThreshold: 64}},
	} {
		m := diva.MustNew(
			diva.WithMesh(side, side),
			diva.WithSeed(r.Seed),
			diva.WithTree(decomp.Ary4),
			diva.WithStrategy(accesstree.FactoryOpts(mode.opts)),
		)
		col := metrics.New(m.Net)
		if _, err := barneshut.Run(m, barneshut.Config{
			N: n, Steps: 4, MeasureFrom: 1, Seed: r.Seed, WithCompute: true,
		}, col); err != nil {
			return err
		}
		migrations := accesstree.TotalRemaps(m.Strat)
		tot := col.Total()
		rows = append(rows, []string{
			mode.name,
			fmt.Sprint(tot.Cong.MaxMsgs),
			f1(tot.TimeUS / 1e6),
			fmt.Sprint(migrations),
		})
	}
	table(r.W, rows)
	fmt.Fprintln(r.W, "\nPaper (§2): \"we omit this remapping as we believe that the constant")
	fmt.Fprintln(r.W, "overhead induced by this procedure will not be retained in practice.\"")
	return nil
}
