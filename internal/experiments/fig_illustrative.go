package experiments

import (
	"fmt"

	"diva"
	"diva/internal/apps/bitonic"
	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/decomp"
	"diva/internal/mesh"
	"diva/internal/metrics"
)

// Fig1 renders Figure 1: the hierarchical decomposition of the 4×3 mesh,
// level by level. Each processor is labeled with the id of the submesh it
// belongs to at that level.
func (r *Runner) Fig1() error {
	r.header("Figure 1: the partitions of M(4,3)")
	m := mesh.New(4, 3)
	t := decomp.Build(m, decomp.Ary2)
	for level := 0; level <= t.MaxDepth; level++ {
		fmt.Fprintf(r.W, "level %d:\n", level)
		// Label each cell with the index (at this level) of its submesh.
		label := make(map[int]int)
		idx := 0
		for _, n := range t.Nodes {
			effLevel := n.Depth
			if effLevel > level {
				continue
			}
			// A node "covers" this level if it is at the level, or it is a
			// leaf above it.
			if effLevel == level || (n.Leaf() && effLevel < level) {
				rect := n.Region.(decomp.Rect)
				for row := rect.R0; row < rect.R0+rect.Rows; row++ {
					for col := rect.C0; col < rect.C0+rect.Cols; col++ {
						label[m.ID(mesh.Coord{Row: row, Col: col})] = idx
					}
				}
				idx++
			}
		}
		for row := 0; row < m.Rows; row++ {
			for col := 0; col < m.Cols; col++ {
				fmt.Fprintf(r.W, " %2d", label[m.ID(mesh.Coord{Row: row, Col: col})])
			}
			fmt.Fprintln(r.W)
		}
	}
	return nil
}

// Fig2 reproduces the data flow of Figure 2: a single data block is read
// by every processor of one mesh row (the read phase pattern of the matrix
// multiplication), under the fixed home and the access tree strategy. The
// per-link load heatmap shows the fixed home's star pattern versus the
// access tree's balanced multicast tree.
func (r *Runner) Fig2() error {
	r.header("Figure 2: data flow for one block read by a full row (16x16 mesh)")
	side := 16
	if r.Quick {
		side = 8
	}
	for _, s := range []strategyUnderTest{fhStrategy(), atStrategy(decomp.Ary4)} {
		m := r.machine(side, side, s.fact, s.spec)
		mm, _ := m.MeshTopo()
		owner := mm.ID(mesh.Coord{Row: side / 2, Col: side / 2})
		v := m.AllocAt(owner, 4096, "block")
		err := m.Run(func(p *core.Proc) {
			if p.ID/side == side/2 { // the owner's row reads the block
				p.Read(v)
			}
		})
		if err != nil {
			return err
		}
		c := m.Net.Congestion(nil)
		fmt.Fprintf(r.W, "\n%s: congestion %d bytes, total load %d bytes\n",
			s.name, c.MaxBytes, c.TotalBytes)
		fmt.Fprint(r.W, metrics.HeatmapMsgs(mm, m.Net.Loads(), nil))
	}
	fmt.Fprintln(r.W, "\n(width of a line in the paper's figure = bytes over the link;")
	fmt.Fprintln(r.W, "digits above are deciles of the busiest link's load)")
	return nil
}

// Fig5 renders Figure 5: the bitonic sorting circuit for P = 8.
func (r *Runner) Fig5() error {
	r.header("Figure 5: the bitonic sorting circuit for P = 8")
	steps := bitonic.Circuit(8)
	for w := 0; w < 8; w++ {
		fmt.Fprintf(r.W, "%d ", w)
		for _, step := range steps {
			drawn := false
			for _, c := range step {
				if c.Lo == w || c.Hi == w {
					arrow := "v" // maximum moves to Hi
					if !c.Asc {
						arrow = "^"
					}
					if c.Lo == w {
						fmt.Fprintf(r.W, "--%s[%d:%d]", arrow, c.Lo, c.Hi)
					} else {
						fmt.Fprintf(r.W, "--%s[%d:%d]", arrow, c.Lo, c.Hi)
					}
					drawn = true
					break
				}
			}
			if !drawn {
				fmt.Fprint(r.W, "---------")
			}
		}
		fmt.Fprintln(r.W)
	}
	fmt.Fprintln(r.W, "\nphases: 1 step | 2 steps | 3 steps; v = ascending comparator, ^ = descending")
	return nil
}

// AblationEmbedding compares the paper's modular ("modified") embedding
// with the fully random embedding of the theoretical analysis (design
// decision D1 in DESIGN.md).
func (r *Runner) AblationEmbedding() error {
	side := 16
	block := 1024
	if r.Quick {
		side = 8
		block = 256
	}
	r.header(fmt.Sprintf("Ablation: modular vs random access tree embedding (matmul, %dx%d, block %d)", side, side, block))
	rows := [][]string{{"embedding", "congestion(bytes)", "comm time(us)"}}
	for _, mode := range []struct {
		name string
		opts accesstree.Options
	}{
		{"modular (paper)", accesstree.Options{}},
		{"fully random", accesstree.Options{RandomEmbedding: true}},
	} {
		m := diva.MustNew(
			diva.WithMesh(side, side),
			diva.WithSeed(r.Seed),
			diva.WithTree(decomp.Ary4),
			diva.WithStrategy(accesstree.FactoryOpts(mode.opts)),
		)
		res, err := runMatmulOn(m, block, r.Seed)
		if err != nil {
			return err
		}
		c := m.Net.Congestion(nil)
		rows = append(rows, []string{mode.name, fmt.Sprint(c.MaxBytes), f1(res)})
	}
	table(r.W, rows)
	fmt.Fprintln(r.W, "\nThe modular embedding shortens expected parent-child distances; the")
	fmt.Fprintln(r.W, "random embedding matches the theoretical analysis but routes further.")
	return nil
}

// AblationArity sweeps the access tree arity on the matrix multiplication,
// reproducing the paper's §3.1 finding: lower degree gives lower
// congestion, but the 4-ary tree gives the best time (startup compromise).
func (r *Runner) AblationArity() error {
	side := 16
	block := 1024
	if r.Quick {
		side = 8
		block = 256
	}
	r.header(fmt.Sprintf("Ablation: access tree arity (matmul, %dx%d, block %d)", side, side, block))
	rows := [][]string{{"arity", "congestion(bytes)", "comm time(us)"}}
	for _, spec := range []decomp.Spec{decomp.Ary2, decomp.Ary2K4, decomp.Ary4, decomp.Ary4K16, decomp.Ary16} {
		m := r.machine(side, side, atFactory(), spec)
		res, err := runMatmulOn(m, block, r.Seed)
		if err != nil {
			return err
		}
		c := m.Net.Congestion(nil)
		rows = append(rows, []string{spec.Name(), fmt.Sprint(c.MaxBytes), f1(res)})
	}
	fh := fhStrategy()
	m := r.machine(side, side, fh.fact, fh.spec)
	res, err := runMatmulOn(m, block, r.Seed)
	if err != nil {
		return err
	}
	rows = append(rows, []string{"fixed home (=P-ary)", fmt.Sprint(m.Net.Congestion(nil).MaxBytes), f1(res)})
	table(r.W, rows)
	fmt.Fprintln(r.W, "\nPaper: the smaller the degree, the smaller the congestion; the 4-ary")
	fmt.Fprintln(r.W, "tree is the best compromise between congestion and startups.")
	return nil
}
