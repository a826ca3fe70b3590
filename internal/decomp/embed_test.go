package decomp

import (
	"testing"

	"diva/internal/mesh"
	"diva/internal/xrand"
)

// TestEmbedChildStaysInSubmesh: the modular embedding always maps a node
// into its own region.
func TestEmbedChildStaysInSubmesh(t *testing.T) {
	for _, spec := range []Spec{Ary2, Ary4, Ary16, Ary2K4, Ary4K16} {
		tr := Build(mesh.New(16, 16), spec)
		rng := xrand.New(11)
		for trial := 0; trial < 20; trial++ {
			root := tr.RandomRoot(rng)
			pos := tr.EmbedAll(root)
			for id, n := range tr.Nodes {
				if !n.Region.ContainsProc(int(pos[id])) {
					t.Fatalf("%s: node %d at %v outside %+v", spec.Name(), id, pos[id], n.Region)
				}
			}
		}
	}
}

// TestEmbedLeafIsItself: a leaf's region is a single processor, so every
// embedding maps the leaf onto that processor.
func TestEmbedLeafIsItself(t *testing.T) {
	m := mesh.New(8, 8)
	tr := Build(m, Ary2)
	pos := tr.EmbedAll(m.ID(mesh.Coord{Row: 3, Col: 5}))
	for li, nid := range tr.Leaves {
		if int(pos[nid]) != tr.ProcOfLeaf[li] {
			t.Fatalf("leaf %d embedded at %v, want %v", nid, pos[nid], tr.ProcOfLeaf[li])
		}
	}
}

// TestModularRule checks the paper's formula directly on a known case.
func TestModularRule(t *testing.T) {
	m := mesh.New(4, 4)
	tr := Build(m, Ary2)
	root := tr.Nodes[0]
	// Root at row 3, col 2. First child is the top 2x4 submesh:
	// i = 3, j = 2 relative to root; child pos = (3 mod 2, 2 mod 4) = (1, 2).
	child := tr.Nodes[root.Children[0]]
	got := tr.EmbedChild(m.ID(mesh.Coord{Row: 3, Col: 2}), child.ID)
	rect := child.Region.(Rect)
	want := m.ID(mesh.Coord{Row: rect.R0 + 1, Col: rect.C0 + 2})
	if got != want {
		t.Fatalf("EmbedChild = %v, want %v", got, want)
	}
}

// TestEmbedDeterministic: same root, same positions.
func TestEmbedDeterministic(t *testing.T) {
	m := mesh.New(16, 16)
	tr := Build(m, Ary4)
	a := tr.EmbedAll(m.ID(mesh.Coord{Row: 7, Col: 9}))
	b := tr.EmbedAll(m.ID(mesh.Coord{Row: 7, Col: 9}))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding not deterministic")
		}
	}
}

// TestRandomPosInSubmesh: the ablation embedding also stays inside the
// region and is a pure function of (seed, node).
func TestRandomPosInSubmesh(t *testing.T) {
	tr := Build(mesh.New(16, 16), Ary4)
	for id, n := range tr.Nodes {
		p1 := tr.RandomPos(12345, id)
		p2 := tr.RandomPos(12345, id)
		if p1 != p2 {
			t.Fatal("RandomPos not deterministic")
		}
		if !n.Region.ContainsProc(p1) {
			t.Fatalf("RandomPos %v outside %+v", p1, n.Region)
		}
	}
}

// TestModularEmbeddingShortensPaths: the point of the modified embedding —
// expected parent-child mesh distance is smaller than under the fully
// random embedding.
func TestModularEmbeddingShortensPaths(t *testing.T) {
	m := mesh.New(16, 16)
	tr := Build(m, Ary2)
	rng := xrand.New(99)
	var modular, random float64
	count := 0
	for trial := 0; trial < 50; trial++ {
		root := tr.RandomRoot(rng)
		pos := tr.EmbedAll(root)
		seed := rng.Uint64()
		for id, n := range tr.Nodes {
			if n.Parent == -1 {
				continue
			}
			modular += float64(m.Dist(int(pos[id]), int(pos[n.Parent])))
			random += float64(m.Dist(tr.RandomPos(seed, id), tr.RandomPos(seed, n.Parent)))
			count++
		}
	}
	if modular >= random {
		t.Fatalf("modular embedding (%0.1f) not shorter than random (%0.1f)",
			modular/float64(count), random/float64(count))
	}
}

// TestNonGridEmbedding: on non-grid topologies (hypercube, fat-tree) the
// span regions keep every embedding inside its region and pin leaves to
// their processors.
func TestNonGridEmbedding(t *testing.T) {
	for _, topo := range []mesh.Topology{mesh.NewHypercube(5), mesh.NewFatTree(5)} {
		for _, spec := range []Spec{Ary2, Ary4, Ary4K8} {
			tr := Build(topo, spec)
			rng := xrand.New(23)
			for trial := 0; trial < 10; trial++ {
				pos := tr.EmbedAll(tr.RandomRoot(rng))
				for id, n := range tr.Nodes {
					if !n.Region.ContainsProc(int(pos[id])) {
						t.Fatalf("%s/%s: node %d at %d outside %+v",
							topo, spec.Name(), id, pos[id], n.Region)
					}
				}
				for li, nid := range tr.Leaves {
					if int(pos[nid]) != tr.ProcOfLeaf[li] {
						t.Fatalf("%s/%s: leaf %d not pinned", topo, spec.Name(), nid)
					}
				}
			}
		}
	}
}
