package mesh

import (
	"fmt"
	"sort"

	"diva/internal/xrand"
)

// Graph is a general connected-graph topology: an arbitrary undirected
// simple graph over n processor nodes with precomputed BFS route tables.
// It opens the strategy evaluation — defined for arbitrary networks via
// hierarchical decomposition — to irregular interconnects: random regular
// graphs, Erdős–Rényi graphs, and meshes degraded by removing links.
//
// Undirected edge e between nodes a < b carries the directed link ids 2e
// (a→b) and 2e+1 (b→a), so link ids are dense. Routing is deterministic
// shortest-path: for every destination a BFS fixes, per node, the next hop
// minimizing distance with ties broken toward the lowest neighbor id —
// the same pair always walks the same link sequence. The route tables are
// O(n²) ints, so constructors cap n at graphMaxNodes.
type Graph struct {
	name  string
	n     int
	edges [][2]int // canonical undirected edge list, a < b, sorted

	adj      *adjacency
	nextLink []int32 // (src*n + dst) -> first link of the route; -1 when src == dst
	dist     []int32 // (src*n + dst) -> route length
	diameter int
	bisect   int
}

// graphMaxNodes bounds the processor count: the route tables are O(n²).
const graphMaxNodes = 4096

// NewGraph builds a general-graph topology from an undirected edge list.
// The graph must be simple (no self loops, no duplicate edges) and
// connected. The name is the String() identity, shown in figures and
// listings.
func NewGraph(name string, n int, edges [][2]int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mesh: graph needs a positive node count, have %d", n)
	}
	if n > graphMaxNodes {
		return nil, fmt.Errorf("mesh: graph route tables are O(n^2); %d nodes exceeds the %d cap", n, graphMaxNodes)
	}
	// Canonicalize: a < b per edge, edges sorted lexicographically. The
	// edge order fixes the link ids, so the topology is a pure function of
	// the (unordered) edge set.
	es := make([][2]int, 0, len(edges))
	for _, e := range edges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		if a == b {
			return nil, fmt.Errorf("mesh: graph has a self loop at node %d", a)
		}
		if a < 0 || b >= n {
			return nil, fmt.Errorf("mesh: graph edge (%d,%d) outside [0,%d)", e[0], e[1], n)
		}
		es = append(es, [2]int{a, b})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	for i := 1; i < len(es); i++ {
		if es[i] == es[i-1] {
			return nil, fmt.Errorf("mesh: graph has duplicate edge (%d,%d)", es[i][0], es[i][1])
		}
	}
	g := &Graph{name: name, n: n, edges: es, adj: newAdjacency(n, edgeLinks(es))}
	if err := g.buildRoutes(); err != nil {
		return nil, err
	}
	g.bisect = 0
	for _, ed := range es {
		// The canonical halving cut is the id-space split the hierarchical
		// decomposition uses for non-grid topologies: ids below n/2 vs. the
		// rest. One-directional capacity, as for the other families.
		if ed[0] < n/2 && ed[1] >= n/2 {
			g.bisect++
		}
	}
	return g, nil
}

// buildRoutes runs one BFS per destination and fills the next-hop and
// distance tables. Next hops prefer the lowest neighbor id among the
// neighbors closest to the destination (and the lowest link id to it,
// though simple graphs have exactly one).
func (g *Graph) buildRoutes() error {
	n := g.n
	g.nextLink = make([]int32, n*n)
	g.dist = make([]int32, n*n)
	depth := make([]int32, n)
	queue := make([]int32, 0, n)
	for dst := 0; dst < n; dst++ {
		for i := range depth {
			depth[i] = -1
		}
		depth[dst] = 0
		queue = append(queue[:0], int32(dst))
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, h := range g.adj.rows[u] {
				if depth[h.to] == -1 {
					depth[h.to] = depth[u] + 1
					queue = append(queue, h.to)
				}
			}
		}
		for u := 0; u < n; u++ {
			if depth[u] == -1 {
				return fmt.Errorf("mesh: graph %q is disconnected (no path %d->%d)", g.name, u, dst)
			}
			g.dist[u*n+dst] = depth[u]
			if int(depth[u]) > g.diameter {
				g.diameter = int(depth[u])
			}
			if u == dst {
				g.nextLink[u*n+dst] = -1
				continue
			}
			next := int32(-1)
			for _, h := range g.adj.rows[u] { // sorted by (to, link): first match is canonical
				if depth[h.to] == depth[u]-1 {
					next = h.link
					break
				}
			}
			g.nextLink[u*n+dst] = next
		}
	}
	return nil
}

// N returns the number of processor nodes.
func (g *Graph) N() int { return g.n }

// Nodes returns the number of network nodes (no switch elements).
func (g *Graph) Nodes() int { return g.n }

// NumLinks returns the directed-link id space: two per undirected edge.
func (g *Graph) NumLinks() int { return 2 * len(g.edges) }

// Dist returns the length of the deterministic route from a to b.
func (g *Graph) Dist(a, b int) int { return int(g.dist[a*g.n+b]) }

// Diameter returns the maximum Dist over all pairs.
func (g *Graph) Diameter() int { return g.diameter }

// Bisection returns the one-directional link capacity across the id-space
// halving cut (ids < n/2 vs. the rest), the first split of the
// hierarchical decomposition on non-grid topologies.
func (g *Graph) Bisection() int { return g.bisect }

// AppendRoute appends the deterministic shortest path from a to b.
func (g *Graph) AppendRoute(buf []int, a, b int) []int {
	u := a
	for u != b {
		li := g.nextLink[u*g.n+b]
		buf = append(buf, int(li))
		u = g.edges[li/2][1-li%2] // the head of link li
	}
	return buf
}

// ForEachLink enumerates both directions of every edge.
func (g *Graph) ForEachLink(f func(link, from, to int)) { edgeLinks(g.edges)(f) }

// Grid reports no canonical 2D layout: graphs are decomposed over their
// processor id space.
func (g *Graph) Grid() (rows, cols int, ok bool) { return 0, 0, false }

func (g *Graph) String() string { return g.name }

// NewRandomRegular builds a connected random d-regular graph over n nodes
// via the configuration model: stubs are paired from a seeded shuffle,
// rejecting pairings with self loops or duplicate edges, until a simple
// connected graph emerges. n*d must be even, d in [2, n).
func NewRandomRegular(n, d int, seed uint64) (*Graph, error) {
	if d < 2 || d >= n {
		return nil, fmt.Errorf("mesh: random-regular degree must be in [2, %d), have %d", n, d)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("mesh: random-regular needs an even n*d, have %d*%d", n, d)
	}
	rng := xrand.New(seed)
	stubs := make([]int, n*d)
	for i := range stubs {
		stubs[i] = i / d
	}
	for attempt := 0; attempt < 1000; attempt++ {
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		edges, ok := pairStubs(stubs)
		if !ok {
			continue
		}
		g, err := NewGraph(fmt.Sprintf("random %d-regular graph (%d nodes)", d, n), n, edges)
		if err == nil {
			return g, nil
		}
	}
	return nil, fmt.Errorf("mesh: no connected simple %d-regular graph on %d nodes after 1000 pairings", d, n)
}

// pairStubs pairs consecutive stubs into edges, rejecting self loops and
// duplicates.
func pairStubs(stubs []int) ([][2]int, bool) {
	edges := make([][2]int, 0, len(stubs)/2)
	seen := make(map[[2]int]bool, len(stubs)/2)
	for i := 0; i < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		if a == b {
			return nil, false
		}
		if a > b {
			a, b = b, a
		}
		k := [2]int{a, b}
		if seen[k] {
			return nil, false
		}
		seen[k] = true
		edges = append(edges, k)
	}
	return edges, true
}

// NewErdosRenyi builds a connected Erdős–Rényi G(n, p) graph with
// p = avgDegree/(n-1). Components left by the random draw are joined by
// deterministic bridge edges (lowest node of each component to the lowest
// node of the next), so the result is always connected; the bridges
// slightly raise the realized average degree on sparse draws.
func NewErdosRenyi(n int, avgDegree float64, seed uint64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("mesh: Erdős–Rényi needs at least 2 nodes, have %d", n)
	}
	if avgDegree <= 0 || avgDegree > float64(n-1) {
		return nil, fmt.Errorf("mesh: Erdős–Rényi average degree must be in (0, %d], have %g", n-1, avgDegree)
	}
	rng := xrand.New(seed)
	p := avgDegree / float64(n-1)
	var edges [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{a, b})
			}
		}
	}
	edges = bridgeComponents(n, edges)
	return NewGraph(fmt.Sprintf("Erdős–Rényi graph (%d nodes, deg %.1f)", n, avgDegree), n, edges)
}

// bridgeComponents adds one edge between consecutive components (by lowest
// member id) until the graph is connected.
func bridgeComponents(n int, edges [][2]int) [][2]int {
	a := newAdjacency(n, edgeLinks(edges))
	w := walker{seen: make([]bool, n)}
	prev := -1
	for u := range n {
		if w.seen[u] {
			continue
		}
		w.reach(a, nil, u, -1)
		if prev >= 0 {
			edges = append(edges, [2]int{prev, u})
		}
		prev = u
	}
	return edges
}

// NewDegradedMesh builds a rows×cols mesh with `drop` of its undirected
// links removed at random — the "mesh after manufacturing defects or
// failed links were fenced out" topology. Removals that would disconnect
// the graph are skipped; when fewer than `drop` removable links exist the
// result keeps the graph connected with as many removed as possible.
func NewDegradedMesh(rows, cols, drop int, seed uint64) (*Graph, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("mesh: degraded mesh dimensions must be positive, have %dx%d", rows, cols)
	}
	if drop < 0 {
		return nil, fmt.Errorf("mesh: degraded mesh cannot drop %d links", drop)
	}
	n := rows * cols
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	a := newAdjacency(n, edgeLinks(edges))
	removed := make([]int32, 2*len(edges)) // per directed link: 1 once its edge is gone
	w := walker{seen: make([]bool, n)}
	dropped := 0
	for _, ei := range xrand.New(seed).Perm(len(edges)) {
		if dropped >= drop {
			break
		}
		removed[2*ei], removed[2*ei+1] = 1, 1
		clear(w.seen)
		if w.reach(a, removed, 0, -1) == n {
			dropped++
		} else {
			removed[2*ei], removed[2*ei+1] = 0, 0
		}
	}
	kept := make([][2]int, 0, len(edges)-dropped)
	for ei, e := range edges {
		if removed[2*ei] == 0 {
			kept = append(kept, e)
		}
	}
	return NewGraph(fmt.Sprintf("%dx%d mesh, %d links dropped", rows, cols, dropped), n, kept)
}
