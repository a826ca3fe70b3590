package mesh

import (
	"fmt"
	"testing"
)

// topoCase pairs a topology with the closed forms its structure must
// satisfy.
type topoCase struct {
	t        Topology
	procs    int // N(): processor count
	nodes    int // Nodes(): including switches
	links    int // existing directed links (ForEachLink count)
	diameter int
	bisect   int
}

func topoCases() []topoCase {
	return []topoCase{
		// R×C mesh: N = RC, directed links = 2(R(C-1) + C(R-1)).
		{New(1, 1), 1, 1, 0, 0, 0},
		{New(4, 4), 16, 16, 2 * (4*3 + 4*3), 6, 4},
		{New(5, 7), 35, 35, 2 * (5*6 + 7*4), 10, 5},
		{New(8, 8), 64, 64, 2 * (8*7 + 8*7), 14, 8},
		// R×C torus: all four link slots exist when the dimension wraps;
		// directed links = 4RC (2RC for a single-row/column ring).
		{NewTorus(4, 4), 16, 16, 4 * 16, 4, 8},
		{NewTorus(5, 7), 35, 35, 4 * 35, 5, 10},
		{NewTorus(1, 8), 8, 8, 2 * 8, 4, 2},
		{NewTorus(8, 8), 64, 64, 4 * 64, 8, 16},
		// d-cube: N = 2^d, every node has d links.
		{NewHypercube(0), 1, 1, 0, 0, 0},
		{NewHypercube(4), 16, 16, 16 * 4, 4, 8},
		{NewHypercube(6), 64, 64, 64 * 6, 6, 32},
		// Depth-h binary fat-tree: 2^h hosts, 2^h - 1 switches, 2·N·h
		// directed links (each of the h levels carries N up + N down).
		{NewFatTree(1), 2, 3, 4, 2, 1},
		{NewFatTree(4), 16, 31, 2 * 16 * 4, 8, 8},
		{NewFatTree(6), 64, 127, 2 * 64 * 6, 12, 32},
		// Hand-built general graph: a 5-cycle with one chord (0-2).
		// 6 edges = 12 directed links; diameter 2 (4 reaches 1 via 0 or 3);
		// the id cut {0,1} vs {2,3,4} severs 0-2, 0-4, 1-2: 3 links.
		{mustGraph("5-cycle+chord", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}}), 5, 5, 12, 2, 3},
	}
}

func mustGraph(name string, n int, edges [][2]int) *Graph {
	g, err := NewGraph(name, n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// generatedGraphs builds one instance per graph constructor family — the
// shapes behind the graph:* registry entries — for the invariant tests,
// where closed forms do not exist.
func generatedGraphs(tb testing.TB) []Topology {
	rr, err := NewRandomRegular(16, 4, 42)
	if err != nil {
		tb.Fatal(err)
	}
	er, err := NewErdosRenyi(16, 4, 42)
	if err != nil {
		tb.Fatal(err)
	}
	dm, err := NewDegradedMesh(4, 4, 2, 42)
	if err != nil {
		tb.Fatal(err)
	}
	return []Topology{rr, er, dm}
}

// TestTopologyClosedForms: node, link, diameter and bisection counts match
// the closed forms of each family.
func TestTopologyClosedForms(t *testing.T) {
	for _, tc := range topoCases() {
		t.Run(tc.t.String(), func(t *testing.T) {
			if got := tc.t.N(); got != tc.procs {
				t.Errorf("N() = %d, want %d", got, tc.procs)
			}
			if got := tc.t.Nodes(); got != tc.nodes {
				t.Errorf("Nodes() = %d, want %d", got, tc.nodes)
			}
			count := 0
			seen := make(map[int]bool)
			tc.t.ForEachLink(func(link, from, to int) {
				count++
				if seen[link] {
					t.Fatalf("link id %d enumerated twice", link)
				}
				seen[link] = true
				if link < 0 || link >= tc.t.NumLinks() {
					t.Fatalf("link id %d outside [0, %d)", link, tc.t.NumLinks())
				}
				if from < 0 || from >= tc.t.Nodes() || to < 0 || to >= tc.t.Nodes() {
					t.Fatalf("link %d endpoints %d->%d outside node space", link, from, to)
				}
			})
			if count != tc.links {
				t.Errorf("ForEachLink enumerated %d links, want %d", count, tc.links)
			}
			if got := tc.t.Diameter(); got != tc.diameter {
				t.Errorf("Diameter() = %d, want %d", got, tc.diameter)
			}
			if got := tc.t.Bisection(); got != tc.bisect {
				t.Errorf("Bisection() = %d, want %d", got, tc.bisect)
			}
		})
	}
}

// linkGraph builds adjacency and link-endpoint tables from ForEachLink.
func linkGraph(tp Topology) (adj [][]int, ends map[int][2]int) {
	adj = make([][]int, tp.Nodes())
	ends = make(map[int][2]int)
	tp.ForEachLink(func(link, from, to int) {
		adj[from] = append(adj[from], to)
		ends[link] = [2]int{from, to}
	})
	return adj, ends
}

// bfsDist returns the link-count distances from src over the full node
// graph (switches included).
func bfsDist(adj [][]int, src int) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// TestRoutesAreShortestAndDeterministic: for every processor pair, the
// deterministic route is a connected walk from a to b whose length equals
// both Dist(a, b) and the BFS shortest-path distance in the link graph,
// and routing the same pair twice yields the same links. The diameter is
// the maximum observed distance.
func TestRoutesAreShortestAndDeterministic(t *testing.T) {
	for _, tc := range topoCases() {
		t.Run(tc.t.String(), func(t *testing.T) {
			checkRouteInvariants(t, tc.t)
		})
	}
}

// TestGraphConstructorRouteInvariants: the generated-graph constructors
// behind the graph:* registry entries satisfy the same route invariants
// as the closed-form families.
func TestGraphConstructorRouteInvariants(t *testing.T) {
	for _, tp := range generatedGraphs(t) {
		t.Run(tp.String(), func(t *testing.T) {
			checkRouteInvariants(t, tp)
		})
	}
}

func checkRouteInvariants(t *testing.T, tp Topology) {
	t.Helper()
	adj, ends := linkGraph(tp)
	maxDist := 0
	for a := 0; a < tp.N(); a++ {
		dist := bfsDist(adj, a)
		for b := 0; b < tp.N(); b++ {
			route := tp.AppendRoute(nil, a, b)
			again := tp.AppendRoute(nil, a, b)
			if fmt.Sprint(route) != fmt.Sprint(again) {
				t.Fatalf("route %d->%d not deterministic", a, b)
			}
			if len(route) != tp.Dist(a, b) {
				t.Fatalf("route %d->%d has %d links, Dist says %d",
					a, b, len(route), tp.Dist(a, b))
			}
			if dist[b] == -1 && a != b {
				t.Fatalf("no path %d->%d in link graph", a, b)
			}
			if len(route) != dist[b] {
				t.Fatalf("route %d->%d has %d links, BFS shortest is %d",
					a, b, len(route), dist[b])
			}
			if tp.Dist(a, b) > maxDist {
				maxDist = tp.Dist(a, b)
			}
			// The route is a connected walk from a to b.
			cur := a
			for _, l := range route {
				e, ok := ends[l]
				if !ok {
					t.Fatalf("route %d->%d uses unknown link %d", a, b, l)
				}
				if e[0] != cur {
					t.Fatalf("route %d->%d: link %d leaves %d, walk is at %d",
						a, b, l, e[0], cur)
				}
				cur = e[1]
			}
			if cur != b {
				t.Fatalf("route %d->%d ends at %d", a, b, cur)
			}
		}
	}
	if tp.N() > 1 && maxDist != tp.Diameter() {
		t.Errorf("max route length %d != Diameter() %d", maxDist, tp.Diameter())
	}
}

// TestMeshRouteUnchanged: the extracted AppendRoute preserves the exact
// dimension-order link sequence of the original mesh router (columns
// before rows) — the delivery hot path the golden determinism tests pin.
func TestMeshRouteUnchanged(t *testing.T) {
	m := New(4, 5)
	// From (0,0)=0 to (2,3)=13: three East links, then two South links.
	want := []int{
		m.LinkID(0, East), m.LinkID(1, East), m.LinkID(2, East),
		m.LinkID(3, South), m.LinkID(8, South),
	}
	got := m.AppendRoute(nil, 0, 13)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("AppendRoute(0, 13) = %v, want %v", got, want)
	}
}

// TestTorusWrapRouting: the torus goes the shorter way around, taking the
// positive direction on ties.
func TestTorusWrapRouting(t *testing.T) {
	tor := NewTorus(1, 8)
	// 0 -> 6: two West hops around the wrap, not six East hops.
	route := tor.AppendRoute(nil, 0, 6)
	want := []int{tor.LinkID(0, West), tor.LinkID(7, West)}
	if fmt.Sprint(route) != fmt.Sprint(want) {
		t.Fatalf("wrap route = %v, want %v", route, want)
	}
	// 0 -> 4 is a tie: the positive (East) way is taken.
	route = tor.AppendRoute(nil, 0, 4)
	if len(route) != 4 || route[0] != tor.LinkID(0, East) {
		t.Fatalf("tie route = %v, want 4 East links", route)
	}
}

// TestFatTreeParallelLinkSpreading: the d-mod-k rule spreads flows from
// distinct sources across the parallel links of a shared up-edge.
func TestFatTreeParallelLinkSpreading(t *testing.T) {
	ft := NewFatTree(3)
	// Hosts 0..3 all cross the root to reach host 7; their final up-edge
	// (left level-1 switch -> root, multiplicity 4) must use 4 distinct
	// parallel links.
	used := make(map[int]bool)
	for src := 0; src < 4; src++ {
		route := ft.AppendRoute(nil, src, 7)
		// Route shape: host-up, up(level 2), up(level 1), down(level 1),
		// down(level 2), host-down.
		if len(route) != 6 {
			t.Fatalf("route %d->7 has %d links, want 6", src, len(route))
		}
		used[route[2]] = true
	}
	if len(used) != 4 {
		t.Fatalf("4 sources used %d distinct parallel top links, want 4", len(used))
	}
}
