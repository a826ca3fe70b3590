package mesh

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"diva/internal/xrand"
)

// This file keeps the constructions the shared link graph replaced, as
// references: the per-network adjacency InstallFaults built, the pair map
// FaultGen.Generate built, the union-find bridgeComponents ran, and the
// two schedule passes (merge, then validate) InstallFaults made.

// adjacencyReference is the build InstallFaults ran on every faulty
// network: outgoing (to, link) halves sorted by (to, link), and every
// link under both of its endpoints in enumeration order.
func adjacencyReference(t Topology) (adjOut [][]graphHalf, nodeLinks [][]int32) {
	n := t.Nodes()
	adjOut = make([][]graphHalf, n)
	nodeLinks = make([][]int32, n)
	t.ForEachLink(func(link, from, to int) {
		adjOut[from] = append(adjOut[from], graphHalf{to: int32(to), link: int32(link)})
		nodeLinks[from] = append(nodeLinks[from], int32(link))
		nodeLinks[to] = append(nodeLinks[to], int32(link))
	})
	for _, a := range adjOut {
		slices.SortFunc(a, func(x, y graphHalf) int {
			return cmp.Or(cmp.Compare(x.to, y.to), cmp.Compare(x.link, y.link))
		})
	}
	return adjOut, nodeLinks
}

// pairsReference is the link-pair list Generate drew from: a map of
// undirected pairs, sorted.
func pairsReference(t Topology) [][2]int {
	pairSet := make(map[[2]int]bool)
	t.ForEachLink(func(_, from, to int) {
		pairSet[[2]int{min(from, to), max(from, to)}] = true
	})
	pairs := make([][2]int, 0, len(pairSet))
	for p := range pairSet {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

// TestLinkGraphMatchesReference: for every topology family of the
// registry, the shared link graph's rows, incident sets and link-pair list
// equal the per-network build and the pair map they replace, and a
// Graph's routes run on the same graph the network's Routes hands out.
func TestLinkGraphMatchesReference(t *testing.T) {
	topos := []Topology{New(16, 16), NewTorus(1, 2), NewTorus(2, 3)}
	for _, tc := range topoCases() {
		topos = append(topos, tc.t)
	}
	topos = append(topos, generatedGraphs(t)...)
	for _, tp := range topos {
		a := NewRoutes(tp, RouteBytesMax).links()
		adjOut, nodeLinks := adjacencyReference(tp)
		if a.nodes() != tp.Nodes() {
			t.Fatalf("%v: link graph has %d nodes, topology %d", tp, a.nodes(), tp.Nodes())
		}
		for u := range tp.Nodes() {
			if !slices.Equal(a.rows[u], adjOut[u]) {
				t.Errorf("%v: node %d row %v, reference %v", tp, u, a.rows[u], adjOut[u])
			}
			if !slices.Equal(a.incident[u], nodeLinks[u]) {
				t.Errorf("%v: node %d incident links %v, reference %v", tp, u, a.incident[u], nodeLinks[u])
			}
		}
		want := pairsReference(tp)
		if len(a.pairs) != len(want) {
			t.Fatalf("%v: %d link pairs, reference %d", tp, len(a.pairs), len(want))
		}
		for i, p := range a.pairs {
			if int(p[0]) != want[i][0] || int(p[1]) != want[i][1] {
				t.Fatalf("%v: link pair %d is %v, reference %v", tp, i, p, want[i])
			}
		}
		if g, ok := tp.(*Graph); ok && NewRoutes(g, RouteBytesMax).links() != g.adj {
			t.Errorf("%v: Routes built a second link graph", tp)
		}
	}
}

// bridgeComponentsReference is bridgeComponents as a union-find.
func bridgeComponentsReference(n int, edges [][2]int) [][2]int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, e := range edges {
		union(e[0], e[1])
	}
	var heads []int
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		r := find(i)
		if !seen[r] {
			seen[r] = true
			heads = append(heads, i)
		}
	}
	for i := 1; i < len(heads); i++ {
		edges = append(edges, [2]int{heads[i-1], heads[i]})
		union(heads[i-1], heads[i])
	}
	return edges
}

// TestBridgeComponentsMatchesUnionFind: on random edge lists, from empty
// to connected, the walk adds exactly the bridges the union-find added.
func TestBridgeComponentsMatchesUnionFind(t *testing.T) {
	rng := xrand.New(38)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		var edges [][2]int
		if n > 1 {
			for range rng.Intn(2 * n) {
				a, b := rng.Intn(n), rng.Intn(n-1)
				if b >= a {
					b++
				}
				edges = append(edges, [2]int{min(a, b), max(a, b)})
			}
		}
		got := bridgeComponents(n, slices.Clone(edges))
		want := bridgeComponentsReference(n, slices.Clone(edges))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d, %d nodes, edges %v: bridged to %v, reference %v", trial, n, edges, got, want)
		}
	}
}

// mergeOverlapsReference is the merge pass InstallFaults ran before
// validating: depth counters per link pair and node keep only the 0→1
// down and the 1→0 up transitions.
func mergeOverlapsReference(s FaultSchedule) FaultSchedule {
	pairDepth := make(map[[2]int]int)
	nodeDepth := make(map[int]int)
	out := make(FaultSchedule, 0, len(s))
	for _, ev := range s {
		keep := true
		switch ev.Kind {
		case FaultLinkDown, FaultLinkUp:
			p := [2]int{min(ev.A, ev.B), max(ev.A, ev.B)}
			if ev.Kind == FaultLinkDown {
				keep = pairDepth[p] == 0
				pairDepth[p]++
			} else if pairDepth[p] > 0 {
				pairDepth[p]--
				keep = pairDepth[p] == 0
			}
		case FaultNodeDown, FaultNodeUp:
			if ev.Kind == FaultNodeDown {
				keep = nodeDepth[ev.A] == 0
				nodeDepth[ev.A]++
			} else if nodeDepth[ev.A] > 0 {
				nodeDepth[ev.A]--
				keep = nodeDepth[ev.A] == 0
			}
		}
		if keep {
			out = append(out, ev)
		}
	}
	return out
}

// validateReference is the validation pass that followed the merge:
// endpoints exist, downs and ups alternate per pair and per node, and a
// second pass over the state maps finds anything left down.
func validateReference(a *adjacency, sched FaultSchedule) error {
	pairDown := make(map[[2]int]bool)
	nodeDown := make(map[int]bool)
	n := a.nodes()
	for i, ev := range sched {
		if !(ev.AtUS >= 0) || math.IsInf(ev.AtUS, 0) {
			return fmt.Errorf("fault event %d: at_us %g", i, ev.AtUS)
		}
		switch ev.Kind {
		case FaultLinkDown, FaultLinkUp:
			lo, hi := min(ev.A, ev.B), max(ev.A, ev.B)
			if lo < 0 || hi >= n || lo == hi {
				return fmt.Errorf("fault event %d: no such node pair", i)
			}
			if len(a.pairLinks(lo, hi))+len(a.pairLinks(hi, lo)) == 0 {
				return fmt.Errorf("fault event %d: no shared link", i)
			}
			p := [2]int{lo, hi}
			if down := ev.Kind == FaultLinkDown; down == pairDown[p] {
				return fmt.Errorf("fault event %d: pair already in that state", i)
			}
			pairDown[p] = ev.Kind == FaultLinkDown
		case FaultNodeDown, FaultNodeUp:
			if ev.A < 0 || ev.A >= n {
				return fmt.Errorf("fault event %d: no such node", i)
			}
			if down := ev.Kind == FaultNodeDown; down == nodeDown[ev.A] {
				return fmt.Errorf("fault event %d: node already in that state", i)
			}
			nodeDown[ev.A] = ev.Kind == FaultNodeDown
		default:
			return fmt.Errorf("fault event %d: unknown kind", i)
		}
	}
	for _, down := range pairDown {
		if down {
			return fmt.Errorf("pair never healed")
		}
	}
	for _, down := range nodeDown {
		if down {
			return fmt.Errorf("node never healed")
		}
	}
	return nil
}

// normalizeReference is the install-time schedule processing normalize
// replaces: stable sort by time, merge, validate.
func normalizeReference(a *adjacency, s FaultSchedule) (FaultSchedule, error) {
	out := slices.Clone(s)
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtUS < out[j].AtUS })
	out = mergeOverlapsReference(out)
	if err := validateReference(a, out); err != nil {
		return nil, err
	}
	return out, nil
}

// FuzzFaultSchedule runs random schedules through normalize and through
// the merge and validation passes it replaces, on a 3×3 mesh (whose
// diagonal pairs share no link) and a fat-tree (whose switches are nodes
// but not processors). Both accept and reject the same schedules and keep
// the same events — except that normalize checks the time of every event,
// where the reference checked only the events its merge kept, so a
// schedule with a bad time anywhere must be rejected.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 5, 1, 1, 2})
	f.Add([]byte{0, 0, 1, 2, 1, 0, 1, 2, 2, 1, 1, 2, 3, 1, 1, 2})
	f.Add([]byte{0, 2, 4, 0, 9, 3, 4, 0, 3, 2, 4, 0})
	f.Add([]byte{1, 0, 0, 4, 2, 1, 0, 4})
	f.Add([]byte{0, 0, 1, 2, 255, 0, 1, 2, 6, 1, 1, 2, 7, 1, 1, 2})
	f.Add([]byte{4, 4, 7, 7, 0, 2, 10, 10, 8, 3, 10, 10})
	f.Add([]byte("overlapping windows, unhealed pairs, unknown kinds"))
	graphs := []*adjacency{NewRoutes(New(3, 3), RouteBytesMax).links(), NewRoutes(NewFatTree(2), RouteBytesMax).links()}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		a := graphs[int(data[0])%len(graphs)]
		n := a.nodes()
		var sched FaultSchedule
		badTime := false
		for i := 1; i+4 <= len(data); i += 4 {
			ev := FaultEvent{
				AtUS: float64(data[i]%16) * 10,
				Kind: FaultKind(data[i+1] % 5),
				A:    int(data[i+2])%(n+2) - 1,
				B:    int(data[i+3])%(n+2) - 1,
			}
			switch data[i] {
			case 255:
				ev.AtUS = -1
			case 254:
				ev.AtUS = math.NaN()
			case 253:
				ev.AtUS = math.Inf(1)
			}
			badTime = badTime || !(ev.AtUS >= 0) || math.IsInf(ev.AtUS, 0)
			sched = append(sched, ev)
		}
		in := slices.Clone(sched)
		got, err := sched.normalize(a)
		if !slices.EqualFunc(sched, in, func(x, y FaultEvent) bool {
			return math.Float64bits(x.AtUS) == math.Float64bits(y.AtUS) && x.Kind == y.Kind && x.A == y.A && x.B == y.B
		}) {
			t.Fatalf("normalize changed its input: %v, was %v", sched, in)
		}
		if badTime {
			if err == nil {
				t.Fatalf("schedule %v with a bad time accepted as %v", in, got)
			}
			return
		}
		want, refErr := normalizeReference(a, in)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("schedule %v: normalize error %v, reference error %v", in, err, refErr)
		}
		if err == nil && !slices.Equal(got, want) {
			t.Fatalf("schedule %v: normalized to %v, reference %v", in, got, want)
		}
	})
}
