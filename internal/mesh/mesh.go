// Package mesh models the interconnect of a simulated parallel machine:
// wormhole routing with per-link bandwidth, per-message startup cost, and
// per-link congestion accounting (both message counts and bytes), over a
// pluggable network Topology.
//
// The 2-dimensional mesh below models the Parsytec GCel used in the paper
// (dimension-order wormhole routing); Torus, Hypercube and FatTree extend
// the evaluation to other hierarchically decomposable networks. All four
// share the Network simulation layer and the deterministic-routing
// contract the Topology interface documents.
package mesh

import "fmt"

// Coord is a mesh position. Row 0 is the top row, column 0 the left column.
type Coord struct {
	Row, Col int
}

// Mesh describes an R×C mesh. Node IDs are assigned in row-major order,
// matching the paper's processor numbering ("processors are numbered from 0
// to P-1 in row major order").
type Mesh struct {
	Rows, Cols int
}

// New returns a mesh with the given dimensions. It panics on non-positive
// dimensions.
func New(rows, cols int) Mesh {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mesh: invalid dimensions %dx%d", rows, cols))
	}
	return Mesh{Rows: rows, Cols: cols}
}

// N returns the number of nodes.
func (m Mesh) N() int { return m.Rows * m.Cols }

// ID returns the row-major node id of c.
func (m Mesh) ID(c Coord) int {
	if !m.Contains(c) {
		panic(fmt.Sprintf("mesh: coord %v outside %dx%d", c, m.Rows, m.Cols))
	}
	return c.Row*m.Cols + c.Col
}

// CoordOf returns the coordinates of node id.
func (m Mesh) CoordOf(id int) Coord {
	if id < 0 || id >= m.N() {
		panic(fmt.Sprintf("mesh: node %d outside %dx%d", id, m.Rows, m.Cols))
	}
	return Coord{Row: id / m.Cols, Col: id % m.Cols}
}

// Contains reports whether c lies inside the mesh.
func (m Mesh) Contains(c Coord) bool {
	return c.Row >= 0 && c.Row < m.Rows && c.Col >= 0 && c.Col < m.Cols
}

// Dist returns the Manhattan distance between nodes a and b, which equals
// the length of the dimension-order path.
func (m Mesh) Dist(a, b int) int {
	ca, cb := m.CoordOf(a), m.CoordOf(b)
	return abs(ca.Row-cb.Row) + abs(ca.Col-cb.Col)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Dir identifies one of the four directed link directions leaving a node.
type Dir uint8

// Link directions. East increases the column, South increases the row.
const (
	East Dir = iota
	West
	South
	North
	numDirs
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	switch d {
	case East:
		return "E"
	case West:
		return "W"
	case South:
		return "S"
	case North:
		return "N"
	}
	return "?"
}

// NumLinks returns the size of the directed-link index space (4 slots per
// node; border slots exist but are never used).
func (m Mesh) NumLinks() int { return m.N() * int(numDirs) }

// LinkID returns the directed link index for the link leaving node in
// direction d. The caller must ensure the link exists (HasLink).
func (m Mesh) LinkID(node int, d Dir) int { return node*int(numDirs) + int(d) }

// LinkOf inverts LinkID.
func (m Mesh) LinkOf(link int) (node int, d Dir) {
	return link / int(numDirs), Dir(link % int(numDirs))
}

// HasLink reports whether node has an outgoing link in direction d.
func (m Mesh) HasLink(node int, d Dir) bool {
	c := m.CoordOf(node)
	switch d {
	case East:
		return c.Col+1 < m.Cols
	case West:
		return c.Col > 0
	case South:
		return c.Row+1 < m.Rows
	case North:
		return c.Row > 0
	}
	return false
}

// Neighbor returns the node reached from node in direction d. The link must
// exist.
func (m Mesh) Neighbor(node int, d Dir) int {
	c := m.CoordOf(node)
	switch d {
	case East:
		c.Col++
	case West:
		c.Col--
	case South:
		c.Row++
	case North:
		c.Row--
	}
	return m.ID(c)
}

// AppendRoute implements Topology: the dimension-order path, first all
// edges of dimension 1 (columns / X), then all edges of dimension 2 (rows /
// Y) — the unique shortest path the GCel wormhole router uses. a == b
// yields an empty path.
func (m Mesh) AppendRoute(buf []int, a, b int) []int {
	cur, dst := m.CoordOf(a), m.CoordOf(b)
	for cur.Col != dst.Col {
		d := East
		if dst.Col < cur.Col {
			d = West
		}
		node := m.ID(cur)
		buf = append(buf, m.LinkID(node, d))
		cur = m.CoordOf(m.Neighbor(node, d))
	}
	for cur.Row != dst.Row {
		d := South
		if dst.Row < cur.Row {
			d = North
		}
		node := m.ID(cur)
		buf = append(buf, m.LinkID(node, d))
		cur = m.CoordOf(m.Neighbor(node, d))
	}
	return buf
}

// Nodes implements Topology: every mesh node hosts a processor.
func (m Mesh) Nodes() int { return m.N() }

// Diameter implements Topology: corner to opposite corner.
func (m Mesh) Diameter() int { return m.Rows + m.Cols - 2 }

// Bisection implements Topology: the halving cut splits the longer side,
// crossing one link per line of the shorter side.
func (m Mesh) Bisection() int {
	if m.N() == 1 {
		return 0
	}
	if m.Rows >= m.Cols {
		return m.Cols
	}
	return m.Rows
}

// ForEachLink implements Topology.
func (m Mesh) ForEachLink(f func(link, from, to int)) {
	for n := 0; n < m.N(); n++ {
		for d := East; d < numDirs; d++ {
			if m.HasLink(n, d) {
				f(m.LinkID(n, d), n, m.Neighbor(n, d))
			}
		}
	}
}

// Grid implements Topology: the mesh is its own grid layout.
func (m Mesh) Grid() (rows, cols int, ok bool) { return m.Rows, m.Cols, true }

// String implements fmt.Stringer.
func (m Mesh) String() string { return fmt.Sprintf("%dx%d mesh", m.Rows, m.Cols) }
