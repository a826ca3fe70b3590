package decomp

import (
	"testing"
	"testing/quick"

	"diva/internal/mesh"
)

func TestSplitRule(t *testing.T) {
	// The longer side is split ⌈m1/2⌉ / ⌊m1/2⌋ (rows on ties).
	a, b := (Rect{Rows: 5, Cols: 3}).Split()
	if a.Rows != 3 || b.Rows != 2 || a.Cols != 3 || b.Cols != 3 {
		t.Fatalf("5x3 split into %+v and %+v", a, b)
	}
	a, b = (Rect{Rows: 2, Cols: 6}).Split()
	if a.Cols != 3 || b.Cols != 3 || a.Rows != 2 {
		t.Fatalf("2x6 split into %+v and %+v", a, b)
	}
	a, b = (Rect{Rows: 4, Cols: 4}).Split() // tie: split rows
	if a.Rows != 2 || a.Cols != 4 {
		t.Fatalf("4x4 tie split into %+v and %+v", a, b)
	}
	if a.R0 != 0 || b.R0 != 2 {
		t.Fatalf("split offsets wrong: %+v %+v", a, b)
	}
}

// TestFigure1Partitions reproduces Figure 1 of the paper: the partitions of
// M(4,3) at levels 0..4.
func TestFigure1Partitions(t *testing.T) {
	tr := Build(mesh.New(4, 3), Ary2)
	if tr.MaxDepth != 4 {
		t.Fatalf("M(4,3) decomposition depth %d, want 4 (levels 0..4)", tr.MaxDepth)
	}
	// Level 1: two 2x3 submeshes.
	var l1 []Rect
	for _, n := range tr.Nodes {
		if n.Depth == 1 {
			l1 = append(l1, n.Region.(Rect))
		}
	}
	if len(l1) != 2 || l1[0].Rows != 2 || l1[0].Cols != 3 || l1[1].Rows != 2 || l1[1].Cols != 3 {
		t.Fatalf("level 1 partitions %+v, want two 2x3", l1)
	}
	// Level 2: each 2x3 splits into 2x2 and 2x1.
	count22, count21 := 0, 0
	for _, n := range tr.Nodes {
		if n.Depth == 2 {
			rect := n.Region.(Rect)
			switch {
			case rect.Rows == 2 && rect.Cols == 2:
				count22++
			case rect.Rows == 2 && rect.Cols == 1:
				count21++
			default:
				t.Fatalf("unexpected level-2 rect %+v", rect)
			}
		}
	}
	if count22 != 2 || count21 != 2 {
		t.Fatalf("level 2 has %d 2x2 and %d 2x1, want 2 and 2", count22, count21)
	}
	if len(tr.Leaves) != 12 {
		t.Fatalf("%d leaves, want 12", len(tr.Leaves))
	}
}

func TestTreeInvariants2ary(t *testing.T) {
	checkTreeInvariants(t, Build(mesh.New(8, 8), Ary2), 2)
	checkTreeInvariants(t, Build(mesh.New(16, 16), Ary2), 2)
	checkTreeInvariants(t, Build(mesh.New(5, 9), Ary2), 2)
}

func TestTreeInvariants4ary(t *testing.T) {
	checkTreeInvariants(t, Build(mesh.New(8, 8), Ary4), 4)
	checkTreeInvariants(t, Build(mesh.New(16, 16), Ary4), 4)
	checkTreeInvariants(t, Build(mesh.New(6, 3), Ary4), 4)
}

func TestTreeInvariants16ary(t *testing.T) {
	checkTreeInvariants(t, Build(mesh.New(16, 16), Ary16), 16)
	checkTreeInvariants(t, Build(mesh.New(32, 32), Ary16), 16)
}

// regionProcs enumerates the processors of a region via its leaves.
func regionProcs(r Region) []int {
	if r.Single() {
		return []int{r.FirstProc()}
	}
	a, b := r.Halves()
	return append(regionProcs(a), regionProcs(b)...)
}

// checkTreeInvariants verifies structural soundness for any tree: children
// partition the parent's region, degrees are bounded by the arity, leaves
// are single processors covering the whole network in order.
func checkTreeInvariants(t *testing.T, tr *Tree, maxDeg int) {
	t.Helper()
	if tr.Spec.TermK > maxDeg {
		maxDeg = tr.Spec.TermK
	}
	root := tr.Nodes[0]
	if root.Region.Size() != tr.T.N() {
		t.Fatal("root does not cover the network")
	}
	for _, n := range tr.Nodes {
		if n.Leaf() {
			if !n.Region.Single() {
				t.Fatalf("leaf %d is not a single processor: %+v", n.ID, n.Region)
			}
			continue
		}
		if len(n.Children) < 2 || len(n.Children) > maxDeg {
			t.Fatalf("node %d has degree %d (max %d)", n.ID, len(n.Children), maxDeg)
		}
		// Children partition the parent's region.
		area := 0
		for i, c := range n.Children {
			cn := tr.Nodes[c]
			if cn.Parent != n.ID || cn.ChildIndex != i || cn.Depth != n.Depth+1 {
				t.Fatalf("child bookkeeping wrong at node %d child %d", n.ID, c)
			}
			area += cn.Region.Size()
			for _, p := range regionProcs(cn.Region) {
				if !n.Region.ContainsProc(p) {
					t.Fatalf("child %d escapes parent %d", c, n.ID)
				}
			}
		}
		if area != n.Region.Size() {
			t.Fatalf("children of %d cover %d cells of %d", n.ID, area, n.Region.Size())
		}
	}
	// Leaf numbering is a bijection with processors.
	seen := make(map[int]bool)
	for li, nid := range tr.Leaves {
		if tr.Nodes[nid].LeafIndex != li {
			t.Fatalf("leaf index mismatch at %d", li)
		}
		p := tr.ProcOfLeaf[li]
		if seen[p] {
			t.Fatalf("processor %d appears twice in leaf order", p)
		}
		seen[p] = true
		if tr.LeafOfProc[p] != nid {
			t.Fatalf("LeafOfProc inverse broken for %d", p)
		}
	}
	if len(seen) != tr.T.N() {
		t.Fatalf("leaf order covers %d of %d processors", len(seen), tr.T.N())
	}
}

// Test4arySkipsOddLevels: the 4-ary tree's submeshes are exactly the 2-ary
// tree's even-depth submeshes.
func Test4arySkipsOddLevels(t *testing.T) {
	m := mesh.New(16, 16)
	t2 := Build(m, Ary2)
	t4 := Build(m, Ary4)
	evens := make(map[Rect]bool)
	for _, n := range t2.Nodes {
		if n.Depth%2 == 0 || n.Leaf() {
			evens[n.Region.(Rect)] = true
		}
	}
	for _, n := range t4.Nodes {
		if !evens[n.Region.(Rect)] {
			t.Fatalf("4-ary node %+v is not an even-level 2-ary submesh", n.Region)
		}
	}
	// Depth halves (16x16: 2-ary depth 8 -> 4-ary depth 4).
	if t2.MaxDepth != 8 || t4.MaxDepth != 4 {
		t.Fatalf("depths: 2-ary %d (want 8), 4-ary %d (want 4)", t2.MaxDepth, t4.MaxDepth)
	}
}

func Test16aryDepth(t *testing.T) {
	t16 := Build(mesh.New(16, 16), Ary16)
	if t16.MaxDepth != 2 {
		t.Fatalf("16-ary depth on 16x16 = %d, want 2", t16.MaxDepth)
	}
	root := t16.Nodes[0]
	if len(root.Children) != 16 {
		t.Fatalf("16-ary root has %d children, want 16", len(root.Children))
	}
}

// TestTermKAttachesProcessors: ℓ-k-ary trees terminate at submeshes of size
// ≤ k whose children are the individual processors.
func TestTermKAttachesProcessors(t *testing.T) {
	tr := Build(mesh.New(8, 8), Ary2K4)
	checkTreeInvariants(t, tr, 4)
	for _, n := range tr.Nodes {
		if n.Leaf() {
			continue
		}
		if n.Region.Size() <= 4 {
			// Terminal node: all children must be leaves, one per processor.
			if len(n.Children) != n.Region.Size() {
				t.Fatalf("terminal node %+v has %d children", n.Region, len(n.Children))
			}
			for _, c := range n.Children {
				if !tr.Nodes[c].Leaf() {
					t.Fatalf("terminal node child %d is internal", c)
				}
			}
		} else {
			for _, c := range n.Children {
				cn := tr.Nodes[c]
				if cn.Region.Size() > 4 && len(cn.Children) > 2 {
					t.Fatalf("non-terminal region has degree >2")
				}
			}
		}
	}
}

func Test4K8Tree(t *testing.T) {
	tr := Build(mesh.New(8, 16), Ary4K8)
	checkTreeInvariants(t, tr, 8)
}

// TestLeafOrderLocality: leaves that are close in leaf order are close in
// the mesh — the numbering follows the decomposition hierarchy, so any
// aligned block of 2^d consecutive leaves lies inside one submesh of the
// decomposition (this is what bitonic sorting and costzones exploit).
func TestLeafOrderLocality(t *testing.T) {
	m := mesh.New(8, 8)
	tr := Build(m, Ary2)
	// Consecutive leaf pairs (2-aligned) must be mesh neighbors: they share
	// a depth-(max-1) submesh of size 2.
	for i := 0; i+1 < len(tr.Leaves); i += 2 {
		a, b := tr.ProcOfLeaf[i], tr.ProcOfLeaf[i+1]
		if m.Dist(a, b) != 1 {
			t.Fatalf("leaf pair %d,%d not adjacent (procs %d,%d)", i, i+1, a, b)
		}
	}
	// Any aligned block of 16 consecutive leaves spans a 4x4 submesh.
	for start := 0; start+16 <= len(tr.Leaves); start += 16 {
		minR, maxR, minC, maxC := 99, -1, 99, -1
		for i := start; i < start+16; i++ {
			c := m.CoordOf(tr.ProcOfLeaf[i])
			if c.Row < minR {
				minR = c.Row
			}
			if c.Row > maxR {
				maxR = c.Row
			}
			if c.Col < minC {
				minC = c.Col
			}
			if c.Col > maxC {
				maxC = c.Col
			}
		}
		if (maxR-minR+1)*(maxC-minC+1) != 16 {
			t.Fatalf("leaf block at %d spans %dx%d region",
				start, maxR-minR+1, maxC-minC+1)
		}
	}
}

// TestTreeInvariantsRandomSizes property-checks arbitrary mesh shapes.
func TestTreeInvariantsRandomSizes(t *testing.T) {
	specs := []Spec{Ary2, Ary4, Ary16, Ary2K4, Ary4K16}
	check := func(r, c uint8, si uint8) bool {
		rows := int(r)%20 + 1
		cols := int(c)%20 + 1
		spec := specs[int(si)%len(specs)]
		tr := Build(mesh.New(rows, cols), spec)
		if len(tr.Leaves) != rows*cols {
			return false
		}
		for _, n := range tr.Nodes {
			if n.Leaf() != n.Region.Single() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecNames(t *testing.T) {
	cases := map[string]Spec{
		"2-ary":    Ary2,
		"4-ary":    Ary4,
		"16-ary":   Ary16,
		"2-4-ary":  Ary2K4,
		"4-16-ary": Ary4K16,
		"4-8-ary":  Ary4K8,
	}
	for want, spec := range cases {
		if got := spec.Name(); got != want {
			t.Errorf("Name(%+v) = %q, want %q", spec, got, want)
		}
		if !spec.Valid() {
			t.Errorf("spec %q invalid", want)
		}
	}
	if (Spec{Base: 3}).Valid() {
		t.Error("Base 3 accepted")
	}
	if (Spec{Base: 4, TermK: 2}).Valid() {
		t.Error("TermK < Base accepted")
	}
}

// TestTreeInvariantsNonGrid: the decomposition generalizes to non-grid
// topologies — hypercube regions are subcubes, fat-tree regions subtree
// host ranges; all structural invariants carry over.
func TestTreeInvariantsNonGrid(t *testing.T) {
	for _, topo := range []mesh.Topology{
		mesh.NewHypercube(4), mesh.NewHypercube(6),
		mesh.NewFatTree(4), mesh.NewFatTree(6),
	} {
		checkTreeInvariants(t, Build(topo, Ary2), 2)
		checkTreeInvariants(t, Build(topo, Ary4), 4)
		checkTreeInvariants(t, Build(topo, Ary16), 16)
		checkTreeInvariants(t, Build(topo, Ary4K8), 8)
	}
	// A power-of-two span decomposes into subcubes: every region of the
	// 2-ary tree on the 4-cube is an aligned power-of-two range.
	tr := Build(mesh.NewHypercube(4), Ary2)
	for _, n := range tr.Nodes {
		s := n.Region.(Span)
		size := s.Hi - s.Lo
		if size&(size-1) != 0 || s.Lo%size != 0 {
			t.Fatalf("hypercube region %+v is not an aligned subcube", s)
		}
	}
}
