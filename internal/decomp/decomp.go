// Package decomp implements the hierarchical network decomposition of the
// paper (§2) and the decomposition trees derived from it, generalized from
// the paper's 2D mesh to any mesh.Topology.
//
// The 2-ary decomposition of an m1×m2 mesh (m1 ≥ m2) recursively splits the
// longer side into ⌈m1/2⌉×m2 and ⌊m1/2⌋×m2 submeshes until single
// processors remain (Figure 1 of the paper). The decomposition tree has one
// node per submesh; the access tree of every global variable is a copy of
// this tree. Non-grid topologies decompose the same way over their
// processor-id space (see Region): on the hypercube the halves are
// subcubes, on the fat-tree they are switch subtrees.
//
// Flatter trees reduce startup costs: the 4-ary decomposition skips the odd
// levels of the 2-ary one, the 16-ary skips the odd levels of the 4-ary
// one, and the ℓ-k-ary decomposition terminates at submeshes of size ≤ k,
// whose processors become direct children ("an access tree node that
// represents a submesh of size k' ≤ k gets k' children").
//
// The left-to-right order of the tree's leaves defines the processor
// ident-numbers used by bitonic sorting and the costzones partitioning.
package decomp

import (
	"fmt"

	"diva/internal/mesh"
)

// Spec selects a decomposition-tree variant.
type Spec struct {
	// Base is ℓ: 2, 4 or 16. A tree edge descends log2(Base) levels of the
	// underlying 2-ary decomposition.
	Base int
	// TermK is k: if nonzero, the decomposition terminates at submeshes of
	// size ≤ k and attaches their processors as direct children. Zero means
	// decompose down to single processors.
	TermK int
}

// The variants evaluated in the paper.
var (
	Ary2    = Spec{Base: 2}
	Ary4    = Spec{Base: 4}
	Ary16   = Spec{Base: 16}
	Ary2K4  = Spec{Base: 2, TermK: 4}
	Ary4K8  = Spec{Base: 4, TermK: 8}
	Ary4K16 = Spec{Base: 4, TermK: 16}
)

// Variants lists the paper's six variants in the paper's order. It is the
// one table of named trees: the strategy registry, the spec layer and the
// figures all read it.
var Variants = []Spec{Ary2, Ary4, Ary16, Ary2K4, Ary4K8, Ary4K16}

// ByName returns the paper variant whose Name is name.
func ByName(name string) (Spec, bool) {
	for _, s := range Variants {
		if s.Name() == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Valid reports whether the spec is one the library supports.
func (s Spec) Valid() bool {
	switch s.Base {
	case 2, 4, 16:
	default:
		return false
	}
	return s.TermK == 0 || s.TermK >= s.Base
}

// Name returns the paper's name for the variant ("2-ary", "2-4-ary", ...).
func (s Spec) Name() string {
	if s.TermK > 0 {
		return fmt.Sprintf("%d-%d-ary", s.Base, s.TermK)
	}
	return fmt.Sprintf("%d-ary", s.Base)
}

// levelsPerEdge returns how many 2-ary decomposition levels one tree edge
// descends.
func (s Spec) levelsPerEdge() int {
	switch s.Base {
	case 2:
		return 1
	case 4:
		return 2
	case 16:
		return 4
	}
	panic("decomp: invalid Base " + fmt.Sprint(s.Base))
}

// Node is one node of a decomposition tree.
type Node struct {
	ID       int
	Parent   int // -1 for the root
	Children []int
	Region   Region
	Depth    int // depth in this tree (root = 0)
	// ChildIndex is this node's index in its parent's Children slice
	// (-1 for the root).
	ChildIndex int
	// LeafIndex is the left-to-right leaf number (-1 for internal nodes).
	LeafIndex int
}

// Leaf reports whether the node is a leaf (a single processor).
func (n *Node) Leaf() bool { return len(n.Children) == 0 }

// Tree is a decomposition tree over a topology.
type Tree struct {
	T     mesh.Topology
	Spec  Spec
	Nodes []Node

	// Leaves maps leaf index -> node id, in left-to-right order.
	Leaves []int
	// LeafOfProc maps a processor id to its leaf node id.
	LeafOfProc []int
	// ProcOfLeaf maps leaf index -> processor id. This is the processor
	// ident-numbering used by bitonic sorting and costzones.
	ProcOfLeaf []int
	// MaxDepth is the depth of the deepest leaf.
	MaxDepth int
}

// Build constructs the decomposition tree for topology t according to
// spec.
func Build(t mesh.Topology, spec Spec) *Tree {
	if !spec.Valid() {
		panic(fmt.Sprintf("decomp: invalid spec %+v", spec))
	}
	n := t.N()
	tr := &Tree{
		T: t, Spec: spec,
		Nodes:      make([]Node, 0, 2*n-1), // a 2-ary tree's count; flatter trees have fewer
		Leaves:     make([]int, 0, n),
		LeafOfProc: make([]int, n),
		ProcOfLeaf: make([]int, 0, n),
	}
	for i := range tr.LeafOfProc {
		tr.LeafOfProc[i] = -1
	}
	switch root := rootRegion(t).(type) {
	case Rect:
		(&builder[Rect]{t: tr}).build(root, -1, -1, 0)
	case Span:
		(&builder[Span]{t: tr}).build(root, -1, -1, 0)
	}
	if len(tr.Leaves) != n {
		panic(fmt.Sprintf("decomp: built %d leaves for %d processors", len(tr.Leaves), n))
	}
	// Children are carved from one slab: a node's children were built in
	// ChildIndex order, so a count and a fill in node order place them.
	// Leaves keep a nil slice.
	count := make([]int, len(tr.Nodes))
	for id := 1; id < len(tr.Nodes); id++ {
		count[tr.Nodes[id].Parent]++
	}
	slab := make([]int, len(tr.Nodes)-1)
	for id, c := range count {
		if c > 0 {
			tr.Nodes[id].Children, slab = slab[:c:c], slab[c:]
		}
	}
	for id := 1; id < len(tr.Nodes); id++ {
		nd := &tr.Nodes[id]
		tr.Nodes[nd.Parent].Children[nd.ChildIndex] = id
	}
	return tr
}

// builder materializes a tree over one concrete region type, so the
// intermediate halves of a multi-level edge are never boxed into a Region.
type builder[R interface {
	Region
	split() (R, R)
}] struct {
	t *Tree
	// stack holds the child regions of the nodes on the current root-down
	// path, each node's above its parent's.
	stack []R
}

// build materializes the node for region and recursively its children.
func (b *builder[R]) build(region R, parent, childIndex, depth int) {
	t := b.t
	id := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{
		ID: id, Parent: parent, Region: region, Depth: depth,
		ChildIndex: childIndex, LeafIndex: -1,
	})
	if depth > t.MaxDepth {
		t.MaxDepth = depth
	}
	if region.Single() {
		proc := region.FirstProc()
		t.Nodes[id].LeafIndex = len(t.Leaves)
		t.Leaves = append(t.Leaves, id)
		t.ProcOfLeaf = append(t.ProcOfLeaf, proc)
		t.LeafOfProc[proc] = id
		return
	}
	levels := t.Spec.levelsPerEdge()
	if t.Spec.TermK > 0 && region.Size() <= t.Spec.TermK {
		// Terminal node: one leaf child per processor, in the 2-ary
		// decomposition order of the region.
		levels = -1
	}
	base := len(b.stack)
	b.descend(region, levels)
	for i, end := base, len(b.stack); i < end; i++ {
		b.build(b.stack[i], id, i-base, depth+1)
	}
	b.stack = b.stack[:base]
}

// descend splits region through `levels` binary levels (all the way down
// when negative) and pushes the resulting regions in decomposition order.
// Regions that reach a single processor early are pushed as they are (this
// is how a 4-ary tree attaches a leaf that appears at an odd 2-ary level).
func (b *builder[R]) descend(region R, levels int) {
	if levels == 0 || region.Single() {
		b.stack = append(b.stack, region)
		return
	}
	x, y := region.split()
	b.descend(x, levels-1)
	b.descend(y, levels-1)
}

// Root returns the root node id (always 0).
func (t *Tree) Root() int { return 0 }

// PathToRoot returns the node ids from `node` up to and including the root.
func (t *Tree) PathToRoot(node int) []int {
	var path []int
	for node != -1 {
		path = append(path, node)
		node = t.Nodes[node].Parent
	}
	return path
}

// PathDown returns the node ids from the root down to `node`, inclusive.
func (t *Tree) PathDown(node int) []int {
	up := t.PathToRoot(node)
	for i, j := 0, len(up)-1; i < j; i, j = i+1, j-1 {
		up[i], up[j] = up[j], up[i]
	}
	return up
}

// TreePath returns the unique tree path between nodes a and b, inclusive of
// both endpoints.
func (t *Tree) TreePath(a, b int) []int {
	pa := t.PathToRoot(a) // a ... root
	pb := t.PathToRoot(b) // b ... root
	// Trim the common suffix down to the lowest common ancestor.
	i, j := len(pa)-1, len(pb)-1
	for i > 0 && j > 0 && pa[i-1] == pb[j-1] {
		i--
		j--
	}
	path := append([]int{}, pa[:i+1]...) // a ... lca
	for k := j - 1; k >= 0; k-- {        // lca-1 ... b
		path = append(path, pb[k])
	}
	return path
}
