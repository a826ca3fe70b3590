package experiments

import (
	"fmt"
	"io"

	"diva"
	"diva/internal/decomp"
	"diva/internal/mesh"
	"diva/spec"
)

// fig1 renders Figure 1: the hierarchical decomposition of the 4×3 mesh,
// level by level. Each processor is labeled with the id of the submesh it
// belongs to at that level.
func (r *Runner) fig1() figure {
	return figure{print: func(w io.Writer, _ []result) error {
		header(w, "Figure 1: the partitions of M(4,3)")
		m := mesh.New(4, 3)
		t := decomp.Build(m, decomp.Ary2)
		for level := 0; level <= t.MaxDepth; level++ {
			fmt.Fprintf(w, "level %d:\n", level)
			// Label each cell with the index (at this level) of its submesh.
			label := make(map[int]int)
			idx := 0
			for _, n := range t.Nodes {
				// A node "covers" this level if it is at the level, or it is
				// a leaf above it.
				if n.Depth == level || (n.Leaf() && n.Depth < level) {
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
					fmt.Fprintf(w, " %2d", label[m.ID(mesh.Coord{Row: row, Col: col})])
				}
				fmt.Fprintln(w)
			}
		}
		return nil
	}}
}

// rowRead runs Figure 2's program on a side×side mesh under strat: one
// 4 KB block, owned by the central processor, read by every processor of
// the owner's row (the read phase pattern of the matrix multiplication).
func rowRead(seed uint64, side int, strat string) (*diva.Machine, error) {
	m, err := diva.MachineFromSpec(spec.Spec{Rows: side, Cols: side, Strategy: strat, Seed: seed})
	if err != nil {
		return nil, err
	}
	mm, _ := m.MeshTopo()
	owner := mm.ID(mesh.Coord{Row: side / 2, Col: side / 2})
	v := m.AllocAt(owner, 4096, "block")
	return m, m.Run(func(p *diva.Proc) {
		if p.ID/side == side/2 {
			p.Read(v)
		}
	})
}

// fig2 reproduces the data flow of Figure 2: a single data block is read
// by every processor of one mesh row under the fixed home and the access
// tree strategy. The per-link load heatmap shows the fixed home's star
// pattern versus the access tree's balanced multicast tree. Its two runs
// are not workloads, so they run as the figure prints.
func (r *Runner) fig2() figure {
	side := 16
	if r.Quick {
		side = 8
	}
	return figure{print: func(w io.Writer, _ []result) error {
		header(w, "Figure 2: data flow for one block read by a full row (16x16 mesh)")
		for _, s := range []struct{ name, label string }{{"fixedhome", "fixed home"}, {"at4", "4-ary AT"}} {
			m, err := rowRead(r.Seed, side, s.name)
			if err != nil {
				return err
			}
			c := m.Net.Congestion(nil)
			fmt.Fprintf(w, "\n%s: congestion %d bytes, total load %d bytes\n", s.label, c.MaxBytes, c.TotalBytes)
			heatmap, _ := diva.LinkHeatmap(m)
			fmt.Fprint(w, heatmap)
		}
		fmt.Fprintln(w, "\n(width of a line in the paper's figure = bytes over the link;")
		fmt.Fprintln(w, "digits above are deciles of the busiest link's load)")
		return nil
	}}
}

// fig5 renders Figure 5: the bitonic sorting circuit for P = 8.
func (r *Runner) fig5() figure {
	return figure{print: func(w io.Writer, _ []result) error {
		header(w, "Figure 5: the bitonic sorting circuit for P = 8")
		steps := diva.BitonicCircuit(8)
		for wire := 0; wire < 8; wire++ {
			fmt.Fprintf(w, "%d ", wire)
			for _, step := range steps {
				drawn := false
				for _, c := range step {
					if c.Lo == wire || c.Hi == wire {
						arrow := "v" // maximum moves to Hi
						if !c.Asc {
							arrow = "^"
						}
						fmt.Fprintf(w, "--%s[%d:%d]", arrow, c.Lo, c.Hi)
						drawn = true
						break
					}
				}
				if !drawn {
					fmt.Fprint(w, "---------")
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "\nphases: 1 step | 2 steps | 3 steps; v = ascending comparator, ^ = descending")
		return nil
	}}
}
