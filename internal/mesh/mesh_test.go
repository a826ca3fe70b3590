package mesh

import (
	"testing"
	"testing/quick"
)

func TestIDCoordRoundTrip(t *testing.T) {
	m := New(4, 7)
	for id := 0; id < m.N(); id++ {
		if got := m.ID(m.CoordOf(id)); got != id {
			t.Fatalf("round trip %d -> %v -> %d", id, m.CoordOf(id), got)
		}
	}
}

func TestRowMajorNumbering(t *testing.T) {
	m := New(3, 5)
	if m.ID(Coord{Row: 0, Col: 0}) != 0 {
		t.Fatal("origin is not node 0")
	}
	if m.ID(Coord{Row: 1, Col: 0}) != 5 {
		t.Fatal("numbering is not row-major")
	}
	if m.ID(Coord{Row: 2, Col: 4}) != 14 {
		t.Fatal("last node id wrong")
	}
}

func TestInvalidMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 3) did not panic")
		}
	}()
	New(0, 3)
}

func TestNeighborsAndLinks(t *testing.T) {
	m := New(3, 3)
	center := m.ID(Coord{Row: 1, Col: 1})
	for _, d := range []Dir{East, West, South, North} {
		if !m.HasLink(center, d) {
			t.Fatalf("center node missing %v link", d)
		}
	}
	corner := m.ID(Coord{Row: 0, Col: 0})
	if m.HasLink(corner, West) || m.HasLink(corner, North) {
		t.Fatal("corner node has out-of-mesh links")
	}
	if !m.HasLink(corner, East) || !m.HasLink(corner, South) {
		t.Fatal("corner node missing in-mesh links")
	}
	if m.Neighbor(center, East) != m.ID(Coord{Row: 1, Col: 2}) {
		t.Fatal("East neighbor wrong")
	}
	if m.Neighbor(center, North) != m.ID(Coord{Row: 0, Col: 1}) {
		t.Fatal("North neighbor wrong")
	}
}

func TestLinkIDRoundTrip(t *testing.T) {
	m := New(5, 4)
	for node := 0; node < m.N(); node++ {
		for _, d := range []Dir{East, West, South, North} {
			n, dd := m.LinkOf(m.LinkID(node, d))
			if n != node || dd != d {
				t.Fatalf("LinkOf(LinkID(%d,%v)) = (%d,%v)", node, d, n, dd)
			}
		}
	}
}

// pathNodes is the node sequence of the dimension-order path from a to b,
// inclusive of both endpoints.
func pathNodes(m Mesh, a, b int) []int {
	nodes := []int{a}
	for _, l := range m.AppendRoute(nil, a, b) {
		n, d := m.LinkOf(l)
		nodes = append(nodes, m.Neighbor(n, d))
	}
	return nodes
}

// TestDimensionOrderPath checks the "first dimension 1, then dimension 2"
// rule: the path changes columns before rows.
func TestDimensionOrderPath(t *testing.T) {
	m := New(4, 4)
	a := m.ID(Coord{Row: 3, Col: 0})
	b := m.ID(Coord{Row: 0, Col: 3})
	nodes := pathNodes(m, a, b)
	// Expect: (3,0) (3,1) (3,2) (3,3) (2,3) (1,3) (0,3)
	want := []Coord{{3, 0}, {3, 1}, {3, 2}, {3, 3}, {2, 3}, {1, 3}, {0, 3}}
	if len(nodes) != len(want) {
		t.Fatalf("path has %d nodes, want %d", len(nodes), len(want))
	}
	for i, id := range nodes {
		if m.CoordOf(id) != want[i] {
			t.Fatalf("path[%d] = %v, want %v", i, m.CoordOf(id), want[i])
		}
	}
}

func TestPathLengthEqualsManhattan(t *testing.T) {
	m := New(8, 6)
	check := func(a, b uint16) bool {
		x, y := int(a)%m.N(), int(b)%m.N()
		return len(m.AppendRoute(nil, x, y)) == m.Dist(x, y)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPathConsecutiveAdjacency(t *testing.T) {
	m := New(7, 9)
	check := func(a, b uint16) bool {
		x, y := int(a)%m.N(), int(b)%m.N()
		nodes := pathNodes(m, x, y)
		if nodes[0] != x || nodes[len(nodes)-1] != y {
			return false
		}
		for i := 1; i < len(nodes); i++ {
			if m.Dist(nodes[i-1], nodes[i]) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelfPathEmpty(t *testing.T) {
	m := New(3, 3)
	if len(m.AppendRoute(nil, 4, 4)) != 0 {
		t.Fatal("self path not empty")
	}
	n := pathNodes(m, 4, 4)
	if len(n) != 1 || n[0] != 4 {
		t.Fatalf("self path nodes = %v", n)
	}
}

func TestDegenerateMeshes(t *testing.T) {
	// 1xN and Nx1 meshes must route correctly (they appear as submeshes).
	m := New(1, 8)
	if got := len(m.AppendRoute(nil, 0, 7)); got != 7 {
		t.Fatalf("1x8 path length %d, want 7", got)
	}
	m = New(8, 1)
	if got := len(m.AppendRoute(nil, 0, 7)); got != 7 {
		t.Fatalf("8x1 path length %d, want 7", got)
	}
	m = New(1, 1)
	if m.N() != 1 || len(m.AppendRoute(nil, 0, 0)) != 0 {
		t.Fatal("1x1 mesh broken")
	}
}
