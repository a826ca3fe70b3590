package decomp

import (
	"fmt"

	"diva/internal/mesh"
	"diva/internal/xrand"
)

// Region is one piece of a hierarchical network decomposition: a set of
// processors together with the shape information the paper's halving rule
// and modular embedding need. Grid topologies (mesh, torus) use Rect —
// the paper's submeshes with the coordinate-wise modular rule; non-grid
// topologies (hypercube, fat-tree) use Span — contiguous processor-id
// ranges with the rank-wise analogue of the same rule.
type Region interface {
	// Size returns the number of processors in the region.
	Size() int
	// Single reports whether the region is a single processor.
	Single() bool
	// Halves splits the region by the paper's halving rule into the two
	// decomposition-ordered halves. Halving a single processor panics.
	Halves() (a, b Region)
	// ContainsProc reports whether processor p lies in the region.
	ContainsProc(p int) bool
	// FirstProc returns the decomposition-order first processor of the
	// region (for a single region: its processor).
	FirstProc() int
	// Embed maps the position of this region's parent tree node (a
	// processor in parent) to a position inside this region, following
	// the paper's modular embedding rule.
	Embed(parent Region, parentProc int) int
	// Draw returns a uniformly random processor of the region.
	Draw(rng *xrand.RNG) int
}

// rootRegion returns the whole-network region of a topology: its grid
// rectangle when the paper's submesh decomposition applies, the full
// processor-id span otherwise.
func rootRegion(t mesh.Topology) Region {
	if rows, cols, ok := t.Grid(); ok {
		return Rect{W: cols, Rows: rows, Cols: cols}
	}
	return Span{Lo: 0, Hi: t.N()}
}

// Rect is a submesh of a grid topology: rows [R0, R0+Rows) × columns
// [C0, C0+Cols) of a grid whose full width is W columns (row-major
// processor ids, as in the paper's numbering).
type Rect struct {
	W                  int // column count of the underlying grid
	R0, C0, Rows, Cols int
}

// Size returns the number of processors in the submesh.
func (r Rect) Size() int { return r.Rows * r.Cols }

// Single reports whether the submesh is a single processor.
func (r Rect) Single() bool { return r.Rows == 1 && r.Cols == 1 }

// Contains reports whether the coordinate lies in the submesh.
func (r Rect) Contains(c mesh.Coord) bool {
	return c.Row >= r.R0 && c.Row < r.R0+r.Rows && c.Col >= r.C0 && c.Col < r.C0+r.Cols
}

// ContainsProc implements Region.
func (r Rect) ContainsProc(p int) bool {
	return r.Contains(mesh.Coord{Row: p / r.W, Col: p % r.W})
}

// FirstProc implements Region: the top-left corner.
func (r Rect) FirstProc() int { return r.R0*r.W + r.C0 }

// Split applies the paper's halving rule: the longer side (rows on ties)
// is split into ⌈n/2⌉ and ⌊n/2⌋. Splitting a single processor panics.
func (r Rect) Split() (a, b Rect) {
	if r.Single() {
		panic("decomp: splitting a single processor")
	}
	if r.Rows >= r.Cols {
		h := (r.Rows + 1) / 2
		a = Rect{W: r.W, R0: r.R0, C0: r.C0, Rows: h, Cols: r.Cols}
		b = Rect{W: r.W, R0: r.R0 + h, C0: r.C0, Rows: r.Rows - h, Cols: r.Cols}
		return a, b
	}
	w := (r.Cols + 1) / 2
	a = Rect{W: r.W, R0: r.R0, C0: r.C0, Rows: r.Rows, Cols: w}
	b = Rect{W: r.W, R0: r.R0, C0: r.C0 + w, Rows: r.Rows, Cols: r.Cols - w}
	return a, b
}

// Halves implements Region.
func (r Rect) Halves() (a, b Region) {
	x, y := r.Split()
	return x, y
}

func (r Rect) split() (a, b Rect) { return r.Split() }

// Embed implements Region with the paper's coordinate-wise modular rule:
// if the parent is mapped to the node in row i, column j of its submesh,
// the child is mapped to the node in row i mod m1, column j mod m2 of its
// own submesh.
func (r Rect) Embed(parent Region, parentProc int) int {
	p, ok := parent.(Rect)
	if !ok {
		panic(fmt.Sprintf("decomp: embedding Rect under %T parent", parent))
	}
	i := parentProc/r.W - p.R0
	j := parentProc%r.W - p.C0
	return (r.R0+i%r.Rows)*r.W + (r.C0 + j%r.Cols)
}

// Draw implements Region (row drawn before column, preserving the RNG
// stream of the original mesh-only implementation).
func (r Rect) Draw(rng *xrand.RNG) int {
	row := r.R0 + rng.Intn(r.Rows)
	col := r.C0 + rng.Intn(r.Cols)
	return row*r.W + col
}

// Span is a contiguous processor-id range [Lo, Hi) of a non-grid
// topology. Halving a span follows the paper's ⌈n/2⌉ / ⌊n/2⌋ rule over
// the id order; on the hypercube this fixes the range's highest free bit
// (every region is a subcube), on the fat-tree it follows the switch
// hierarchy (every region is a subtree's host range).
type Span struct {
	Lo, Hi int
}

// Size implements Region.
func (s Span) Size() int { return s.Hi - s.Lo }

// Single implements Region.
func (s Span) Single() bool { return s.Hi-s.Lo == 1 }

// Halves implements Region.
func (s Span) Halves() (a, b Region) {
	x, y := s.split()
	return x, y
}

func (s Span) split() (a, b Span) {
	if s.Single() {
		panic("decomp: splitting a single processor")
	}
	mid := s.Lo + (s.Size()+1)/2
	return Span{Lo: s.Lo, Hi: mid}, Span{Lo: mid, Hi: s.Hi}
}

// ContainsProc implements Region.
func (s Span) ContainsProc(p int) bool { return p >= s.Lo && p < s.Hi }

// FirstProc implements Region.
func (s Span) FirstProc() int { return s.Lo }

// Embed implements Region with the rank-wise modular rule: the parent's
// rank within its span, modulo this span's size.
func (s Span) Embed(parent Region, parentProc int) int {
	p, ok := parent.(Span)
	if !ok {
		panic(fmt.Sprintf("decomp: embedding Span under %T parent", parent))
	}
	return s.Lo + (parentProc-p.Lo)%s.Size()
}

// Draw implements Region.
func (s Span) Draw(rng *xrand.RNG) int { return s.Lo + rng.Intn(s.Size()) }
