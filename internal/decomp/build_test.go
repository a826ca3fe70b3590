package decomp

import (
	"reflect"
	"testing"

	"diva/internal/mesh"
)

// buildReference is the recursive builder Build replaced — children
// appended one by one, every level's regions in freshly appended slices —
// kept as the oracle the slab-carving builder is compared against.
func buildReference(t mesh.Topology, spec Spec) *Tree {
	tr := &Tree{T: t, Spec: spec, LeafOfProc: make([]int, t.N())}
	for i := range tr.LeafOfProc {
		tr.LeafOfProc[i] = -1
	}
	var descend func(region Region, levels int) []Region
	descend = func(region Region, levels int) []Region {
		if levels == 0 || region.Single() {
			return []Region{region}
		}
		a, b := region.Halves()
		return append(descend(a, levels-1), descend(b, levels-1)...)
	}
	var build func(region Region, parent, childIndex, depth int) int
	build = func(region Region, parent, childIndex, depth int) int {
		id := len(tr.Nodes)
		tr.Nodes = append(tr.Nodes, Node{
			ID: id, Parent: parent, Region: region, Depth: depth,
			ChildIndex: childIndex, LeafIndex: -1,
		})
		if depth > tr.MaxDepth {
			tr.MaxDepth = depth
		}
		if region.Single() {
			proc := region.FirstProc()
			tr.Nodes[id].LeafIndex = len(tr.Leaves)
			tr.Leaves = append(tr.Leaves, id)
			tr.ProcOfLeaf = append(tr.ProcOfLeaf, proc)
			tr.LeafOfProc[proc] = id
			return id
		}
		levels := spec.levelsPerEdge()
		if spec.TermK > 0 && region.Size() <= spec.TermK {
			levels = -1 // down to single processors
		}
		for _, sub := range descend(region, levels) {
			cid := build(sub, id, len(tr.Nodes[id].Children), depth+1)
			tr.Nodes[id].Children = append(tr.Nodes[id].Children, cid)
		}
		return id
	}
	build(rootRegion(t), -1, -1, 0)
	return tr
}

// TestBuildMatchesReference: the slab-carving builder produces the very
// tree the recursive one did, for the paper's six variants on every
// topology family (and a non-square, non-power-of-two mesh).
func TestBuildMatchesReference(t *testing.T) {
	graph, err := mesh.NewRandomRegular(48, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	topos := []mesh.Topology{
		mesh.New(16, 16), mesh.New(7, 13), mesh.NewTorus(8, 8),
		mesh.NewHypercube(6), mesh.NewFatTree(5), graph,
	}
	for _, topo := range topos {
		for _, spec := range []Spec{Ary2, Ary4, Ary16, Ary2K4, Ary4K8, Ary4K16} {
			got, want := Build(topo, spec), buildReference(topo, spec)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v %s: Build differs from the reference builder", topo, spec.Name())
			}
		}
	}
}

// TestBuildAllocBudget: a tree costs one allocation per node (the boxed
// region) plus a handful of slabs, not several per node.
func TestBuildAllocBudget(t *testing.T) {
	topo := mesh.New(32, 32)
	nodes := len(Build(topo, Ary2).Nodes)
	allocs := testing.AllocsPerRun(3, func() { Build(topo, Ary2) })
	if limit := float64(nodes + 40); allocs > limit {
		t.Fatalf("Build(32x32, 2-ary) = %.0f allocs for %d nodes, budget %.0f", allocs, nodes, limit)
	}
}
