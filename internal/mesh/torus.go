package mesh

import "fmt"

// Torus is an R×C 2D torus: the mesh with wrap-around links in both
// dimensions. Node ids, link slots and the row-major numbering match the
// mesh exactly; only the neighbor relation (and thus routing) differs.
//
// Routing is dimension-order like the mesh (columns before rows), going
// the shorter way around each ring; on a tie the positive direction
// (East / South) is taken, which keeps routes deterministic.
type Torus struct {
	Rows, Cols int
}

// NewTorus returns a torus with the given dimensions. It panics on
// non-positive dimensions.
func NewTorus(rows, cols int) Torus {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mesh: invalid torus dimensions %dx%d", rows, cols))
	}
	return Torus{Rows: rows, Cols: cols}
}

// mesh returns the grid companion used for id arithmetic.
func (t Torus) mesh() Mesh { return Mesh{Rows: t.Rows, Cols: t.Cols} }

// N returns the number of nodes.
func (t Torus) N() int { return t.Rows * t.Cols }

// Nodes implements Topology: every torus node hosts a processor.
func (t Torus) Nodes() int { return t.N() }

// NumLinks returns the directed-link id space (the mesh's 4 slots per
// node; on a torus every slot of a dimension with more than one line is a
// real link).
func (t Torus) NumLinks() int { return t.N() * int(numDirs) }

// LinkID returns the directed link index for the link leaving node in
// direction d.
func (t Torus) LinkID(node int, d Dir) int { return node*int(numDirs) + int(d) }

// HasLink reports whether node has an outgoing link in direction d: all
// four exist unless the dimension is a single line.
func (t Torus) HasLink(node int, d Dir) bool {
	switch d {
	case East, West:
		return t.Cols > 1
	case South, North:
		return t.Rows > 1
	}
	return false
}

// Neighbor returns the node reached from node in direction d, wrapping
// around the torus.
func (t Torus) Neighbor(node int, d Dir) int {
	c := t.mesh().CoordOf(node)
	switch d {
	case East:
		c.Col = (c.Col + 1) % t.Cols
	case West:
		c.Col = (c.Col - 1 + t.Cols) % t.Cols
	case South:
		c.Row = (c.Row + 1) % t.Rows
	case North:
		c.Row = (c.Row - 1 + t.Rows) % t.Rows
	}
	return t.mesh().ID(c)
}

// ringSteps returns the number of steps and the direction (positive or
// negative) of the shorter way around a ring of the given size from x to
// y. Ties take the positive direction.
func ringSteps(x, y, size int) (steps int, positive bool) {
	fwd := ((y-x)%size + size) % size
	bwd := size - fwd
	if fwd == 0 {
		return 0, true
	}
	if fwd <= bwd {
		return fwd, true
	}
	return bwd, false
}

// Dist implements Topology: the sum of the per-dimension ring distances.
func (t Torus) Dist(a, b int) int {
	ca, cb := t.mesh().CoordOf(a), t.mesh().CoordOf(b)
	dc, _ := ringSteps(ca.Col, cb.Col, t.Cols)
	dr, _ := ringSteps(ca.Row, cb.Row, t.Rows)
	return dc + dr
}

// Diameter implements Topology: half way around both rings.
func (t Torus) Diameter() int { return t.Rows/2 + t.Cols/2 }

// Bisection implements Topology: the halving cut splits the longer side;
// a torus cut crosses two line boundaries (the split and the wrap-around).
func (t Torus) Bisection() int {
	short, long := t.Cols, t.Rows
	if t.Rows < t.Cols {
		short, long = t.Rows, t.Cols
	}
	if long == 1 {
		return 0 // a single node has no cut
	}
	return 2 * short
}

// AppendRoute implements Topology: dimension-order, columns before rows,
// the shorter way around each ring.
func (t Torus) AppendRoute(buf []int, a, b int) []int {
	cur, dst := t.mesh().CoordOf(a), t.mesh().CoordOf(b)
	steps, positive := ringSteps(cur.Col, dst.Col, t.Cols)
	for ; steps > 0; steps-- {
		d := East
		if !positive {
			d = West
		}
		node := t.mesh().ID(cur)
		buf = append(buf, t.LinkID(node, d))
		cur = t.mesh().CoordOf(t.Neighbor(node, d))
	}
	steps, positive = ringSteps(cur.Row, dst.Row, t.Rows)
	for ; steps > 0; steps-- {
		d := South
		if !positive {
			d = North
		}
		node := t.mesh().ID(cur)
		buf = append(buf, t.LinkID(node, d))
		cur = t.mesh().CoordOf(t.Neighbor(node, d))
	}
	return buf
}

// ForEachLink implements Topology.
func (t Torus) ForEachLink(f func(link, from, to int)) {
	for n := 0; n < t.N(); n++ {
		for d := East; d < numDirs; d++ {
			if t.HasLink(n, d) {
				f(t.LinkID(n, d), n, t.Neighbor(n, d))
			}
		}
	}
}

// Grid implements Topology: the torus decomposes over its grid layout
// like the mesh (submeshes of a torus are ordinary rectangles).
func (t Torus) Grid() (rows, cols int, ok bool) { return t.Rows, t.Cols, true }

// String implements fmt.Stringer.
func (t Torus) String() string { return fmt.Sprintf("%dx%d torus", t.Rows, t.Cols) }
