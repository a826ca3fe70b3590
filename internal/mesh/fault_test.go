package mesh

import (
	"math"
	"strings"
	"testing"

	"diva/internal/sim"
	"diva/internal/xrand"
)

// faultNet builds a kernel + network over an arbitrary topology with the
// round-number test params and an installed schedule.
func faultNet(t *testing.T, tp Topology, sched FaultSchedule) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.New()
	nw := NewNetwork(k, tp, testParams())
	if err := nw.InstallFaults(sched); err != nil {
		t.Fatal(err)
	}
	return k, nw
}

// TestFaultScheduleValidation: malformed schedules are rejected at install
// time with errors naming the problem.
func TestFaultScheduleValidation(t *testing.T) {
	cases := []struct {
		name  string
		sched FaultSchedule
		want  string
	}{
		{"negative time", FaultSchedule{
			{AtUS: -1, Kind: FaultLinkDown, A: 0, B: 1},
			{AtUS: 1, Kind: FaultLinkUp, A: 0, B: 1},
		}, "finite and non-negative"},
		{"NaN time inside a merged outage", FaultSchedule{
			// Merging drops the inner down, but its time is still checked.
			{AtUS: 0, Kind: FaultLinkDown, A: 0, B: 1},
			{AtUS: math.NaN(), Kind: FaultLinkDown, A: 0, B: 1},
			{AtUS: 10, Kind: FaultLinkUp, A: 0, B: 1},
			{AtUS: 20, Kind: FaultLinkUp, A: 0, B: 1},
		}, "finite and non-negative"},
		{"no such pair", FaultSchedule{
			{AtUS: 0, Kind: FaultLinkDown, A: 0, B: 3},
			{AtUS: 1, Kind: FaultLinkUp, A: 0, B: 3},
		}, "share no link"},
		{"self pair", FaultSchedule{
			{AtUS: 0, Kind: FaultLinkDown, A: 1, B: 1},
			{AtUS: 1, Kind: FaultLinkUp, A: 1, B: 1},
		}, "no such node pair"},
		{"overlapping downs left unhealed", FaultSchedule{
			// Overlapping windows merge (depth counting), so the two downs
			// collapse to one outage — which the single up closes at depth 1,
			// leaving the merged outage open.
			{AtUS: 0, Kind: FaultLinkDown, A: 0, B: 1},
			{AtUS: 1, Kind: FaultLinkDown, A: 0, B: 1},
			{AtUS: 2, Kind: FaultLinkUp, A: 0, B: 1},
		}, "never healed"},
		{"up before down", FaultSchedule{
			{AtUS: 0, Kind: FaultLinkUp, A: 0, B: 1},
		}, "already in that state"},
		{"never healed", FaultSchedule{
			{AtUS: 0, Kind: FaultLinkDown, A: 0, B: 1},
		}, "never healed"},
		{"node out of range", FaultSchedule{
			{AtUS: 0, Kind: FaultNodeDown, A: 9},
			{AtUS: 1, Kind: FaultNodeUp, A: 9},
		}, "no such node"},
		{"node never healed", FaultSchedule{
			{AtUS: 0, Kind: FaultNodeDown, A: 2},
		}, "never healed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := NewNetwork(sim.New(), New(2, 2), testParams())
			err := nw.InstallFaults(tc.sched)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestFaultInstallEmptyAndDouble: an empty schedule is a no-op and a second
// install is rejected.
func TestFaultInstallEmptyAndDouble(t *testing.T) {
	nw := NewNetwork(sim.New(), New(2, 2), testParams())
	if err := nw.InstallFaults(nil); err != nil {
		t.Fatal(err)
	}
	if nw.FaultSchedule() != nil {
		t.Fatal("empty install left a schedule behind")
	}
	sched := FaultSchedule{
		{AtUS: 0, Kind: FaultLinkDown, A: 0, B: 1},
		{AtUS: 1, Kind: FaultLinkUp, A: 0, B: 1},
	}
	if err := nw.InstallFaults(sched); err != nil {
		t.Fatal(err)
	}
	if err := nw.InstallFaults(sched); err == nil {
		t.Fatal("double install succeeded")
	}
	if got := nw.FaultSchedule(); len(got) != 2 {
		t.Fatalf("FaultSchedule() has %d events, want 2", len(got))
	}
}

// TestFaultRerouteOverSpanningTree: with the direct link down, a message is
// delivered over the live spanning tree and the stretch counters record the
// detour. 2x2 mesh, pair (0,1) down: the only live 0->1 route is
// 0-2, 2-3, 3-1 (three hops instead of one).
func TestFaultRerouteOverSpanningTree(t *testing.T) {
	sched := FaultSchedule{
		{AtUS: 0, Kind: FaultLinkDown, A: 0, B: 1},
		{AtUS: 100000, Kind: FaultLinkUp, A: 0, B: 1},
	}
	k, nw := faultNet(t, New(2, 2), sched)
	var at sim.Time
	nw.Handle(42, func(m *Msg) { at = k.Now() })
	k.At(0, func() { nw.Send(&Msg{Src: 0, Dst: 1, Size: 50, Kind: 42}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// startupSend(100) + 3 hops * 5 + size 50 + startupRecv(100) = 265.
	if at != 265 {
		t.Fatalf("rerouted delivery at %v, want 265", at)
	}
	st := nw.FaultStats()
	if st.Routed != 1 || st.Rerouted != 1 || st.ReroutedHops != 3 || st.BaseHops != 1 {
		t.Fatalf("stats = %+v, want 1 rerouted over 3 hops vs 1", st)
	}
	if st.Stretch() != 3 {
		t.Fatalf("Stretch() = %v, want 3", st.Stretch())
	}
	if st.Availability() != 1 {
		t.Fatalf("Availability() = %v, want 1 (nothing held)", st.Availability())
	}
}

// TestFaultDetourGrowsRouteBuffers: a spanning-tree detour longer than the
// healthy-net diameter must grow the persistent charge buffer (sized
// Diameter()+1 at construction) instead of clobbering memory, and the
// growth must stick for the next message. 2x3 mesh (diameter 3): with
// (0,1) and (1,4) down, node 1 hangs off node 2 and the 0->1 tree path is
// 0-3, 3-4, 4-5, 5-2, 2-1 — five hops.
func TestFaultDetourGrowsRouteBuffers(t *testing.T) {
	sched := FaultSchedule{
		{AtUS: 0, Kind: FaultLinkDown, A: 0, B: 1},
		{AtUS: 0, Kind: FaultLinkDown, A: 1, B: 4},
		{AtUS: 100000, Kind: FaultLinkUp, A: 0, B: 1},
		{AtUS: 100000, Kind: FaultLinkUp, A: 1, B: 4},
	}
	tp := New(2, 3)
	k, nw := faultNet(t, tp, sched)
	if cap(nw.startBuf) != tp.Diameter()+1 {
		t.Fatalf("initial startBuf cap %d, want Diameter()+1 = %d", cap(nw.startBuf), tp.Diameter()+1)
	}
	var at sim.Time
	deliveries := 0
	nw.Handle(42, func(m *Msg) { at = k.Now(); deliveries++ })
	k.At(0, func() { nw.Send(&Msg{Src: 0, Dst: 1, Size: 50, Kind: 42}) })
	k.At(1000, func() { nw.Send(&Msg{Src: 0, Dst: 1, Size: 50, Kind: 42}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if deliveries != 2 {
		t.Fatalf("%d deliveries, want 2", deliveries)
	}
	// Second message: startupSend(100) + 5 hops * 5 + 50 + startupRecv(100).
	if at != 1275 {
		t.Fatalf("detour delivery at %v, want 1275", at)
	}
	if cap(nw.startBuf) < 5 {
		t.Fatalf("startBuf cap %d after a 5-hop detour, growth did not persist", cap(nw.startBuf))
	}
	if st := nw.FaultStats(); st.ReroutedHops != 10 || st.BaseHops != 2 {
		t.Fatalf("stats = %+v, want 10 rerouted hops vs 2 base", st)
	}
}

// TestFaultHeldUntilHeal: a message to a churned-out node is held until the
// schedule heals it, then retransmitted with a fresh send startup.
func TestFaultHeldUntilHeal(t *testing.T) {
	sched := FaultSchedule{
		{AtUS: 0, Kind: FaultNodeDown, A: 1},
		{AtUS: 5000, Kind: FaultNodeUp, A: 1},
	}
	k, nw := faultNet(t, New(2, 2), sched)
	var at sim.Time
	nw.Handle(42, func(m *Msg) { at = k.Now() })
	k.At(0, func() { nw.Send(&Msg{Src: 0, Dst: 1, Size: 50, Kind: 42}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Held from depart (t=100, after the send startup) to the heal at 5000,
	// then a fresh startup: depart2 = 5100, + 1 hop * 5 + 50 + recv 100.
	if at != 5255 {
		t.Fatalf("held delivery at %v, want 5255", at)
	}
	st := nw.FaultStats()
	if st.Held != 1 || st.RetryMsgs != 1 || st.RetryBytes != 50 {
		t.Fatalf("stats = %+v, want 1 held, 1 retry of 50 bytes", st)
	}
	if st.HeldUS != 5000 {
		t.Fatalf("HeldUS = %v, want 5000", st.HeldUS)
	}
	// The retransmission is routed again: availability = 1 - 1/2.
	if st.Routed != 2 || st.Availability() != 0.5 {
		t.Fatalf("Routed = %d, Availability() = %v, want 2 and 0.5", st.Routed, st.Availability())
	}
}

// TestFaultNodeChurnLocalDeliveryUnaffected: churn takes the interface
// down, not the CPU — node-local messages still deliver on time.
func TestFaultNodeChurnLocalDeliveryUnaffected(t *testing.T) {
	sched := FaultSchedule{
		{AtUS: 0, Kind: FaultNodeDown, A: 1},
		{AtUS: 5000, Kind: FaultNodeUp, A: 1},
	}
	k, nw := faultNet(t, New(2, 2), sched)
	var at sim.Time
	nw.Handle(42, func(m *Msg) { at = k.Now() })
	k.At(0, func() { nw.Send(&Msg{Src: 1, Dst: 1, Size: 50, Kind: 42}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 202 { // startup(100) + local(2) + recv(100), as fault-free
		t.Fatalf("local delivery at %v, want 202", at)
	}
	if st := nw.FaultStats(); st.Routed != 0 {
		t.Fatalf("local delivery hit the fault engine: %+v", st)
	}
}

// TestFaultCursorResetTo: resetTo rewinds the link state to an exact
// schedule position by replaying the prefix.
func TestFaultCursorResetTo(t *testing.T) {
	sched := FaultSchedule{
		{AtUS: 10, Kind: FaultLinkDown, A: 0, B: 1},
		{AtUS: 20, Kind: FaultNodeDown, A: 3},
		{AtUS: 30, Kind: FaultNodeUp, A: 3},
		{AtUS: 40, Kind: FaultLinkUp, A: 0, B: 1},
	}
	_, nw := faultNet(t, New(2, 2), sched)
	fs := nw.faults
	fs.sync(25)
	if fs.cursor != 2 || !fs.nodeDown[3] || fs.nDown == 0 {
		t.Fatalf("after sync(25): cursor=%d nodeDown[3]=%v nDown=%d", fs.cursor, fs.nodeDown[3], fs.nDown)
	}
	fs.resetTo(1)
	if fs.cursor != 1 || fs.nodeDown[3] || fs.nodesDown != 0 {
		t.Fatalf("after resetTo(1): cursor=%d nodeDown[3]=%v nodesDown=%d", fs.cursor, fs.nodeDown[3], fs.nodesDown)
	}
	// Only the (0,1) link outage should be active.
	if fs.nDown != 2 {
		t.Fatalf("after resetTo(1): %d directed links down, want 2", fs.nDown)
	}
	fs.resetTo(0)
	if fs.anyDown() {
		t.Fatal("resetTo(0) left faults active")
	}
}

// TestFaultGenDeterministicAndComplete: the generator draws the same
// schedule from the same RNG state, respects the requested counts, and the
// result passes install-time validation on its own topology.
func TestFaultGenDeterministicAndComplete(t *testing.T) {
	g := FaultGen{LinkFailures: 3, NodeChurn: 2, MeanDownUS: 1000, HorizonUS: 8000}
	tp := New(4, 4)
	r := NewRoutes(tp, RouteBytesMax)
	s1, err := g.Generate(r, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := g.Generate(r, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 2*(3+2) {
		t.Fatalf("generated %d events, want %d", len(s1), 2*(3+2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("same seed diverged at event %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
	nw := NewNetwork(sim.New(), tp, testParams())
	if err := nw.InstallFaults(s1); err != nil {
		t.Fatalf("generated schedule fails validation: %v", err)
	}
}

// TestFaultGenErrors: impossible requests are errors, not panics.
func TestFaultGenErrors(t *testing.T) {
	r := NewRoutes(New(2, 2), RouteBytesMax)
	rng := xrand.New(1)
	cases := []struct {
		name string
		g    FaultGen
		want string
	}{
		{"negative", FaultGen{LinkFailures: -1, MeanDownUS: 1, HorizonUS: 1}, "non-negative"},
		{"no mean", FaultGen{LinkFailures: 1, HorizonUS: 1}, "positive mean_down_us"},
		{"too many links", FaultGen{LinkFailures: 100, MeanDownUS: 1, HorizonUS: 1}, "only 4 link pairs"},
		{"too much churn", FaultGen{NodeChurn: 100, MeanDownUS: 1, HorizonUS: 1}, "only 4 processors"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.g.Generate(r, rng)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
	if s, err := (FaultGen{}).Generate(r, rng); err != nil || s != nil {
		t.Fatalf("zero generator = %v, %v, want nil, nil", s, err)
	}
}

// TestGraphConstructorErrors: the graph constructors reject malformed
// inputs with errors naming the problem.
func TestGraphConstructorErrors(t *testing.T) {
	if _, err := NewGraph("x", 0, nil); err == nil {
		t.Error("NewGraph with 0 nodes succeeded")
	}
	if _, err := NewGraph("x", 3, [][2]int{{0, 0}}); err == nil {
		t.Error("self loop accepted")
	}
	if _, err := NewGraph("x", 3, [][2]int{{0, 1}, {1, 0}, {1, 2}}); err == nil {
		t.Error("duplicate edge accepted")
	}
	if _, err := NewGraph("x", 3, [][2]int{{0, 5}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := NewGraph("x", 4, [][2]int{{0, 1}, {2, 3}}); err == nil {
		t.Error("disconnected graph accepted")
	}
	if _, err := NewGraph("x", graphMaxNodes+1, nil); err == nil {
		t.Error("over-cap node count accepted")
	}
	if _, err := NewRandomRegular(8, 1, 1); err == nil {
		t.Error("degree 1 accepted")
	}
	if _, err := NewRandomRegular(5, 3, 1); err == nil {
		t.Error("odd n*d accepted")
	}
	if _, err := NewErdosRenyi(1, 1, 1); err == nil {
		t.Error("single-node ER accepted")
	}
	if _, err := NewErdosRenyi(8, 0, 1); err == nil {
		t.Error("zero-degree ER accepted")
	}
	if _, err := NewDegradedMesh(0, 4, 1, 1); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := NewDegradedMesh(4, 4, -1, 1); err == nil {
		t.Error("negative drop accepted")
	}
}

// TestGraphConstructorsDeterministic: the seeded constructors are pure
// functions of their arguments.
func TestGraphConstructorsDeterministic(t *testing.T) {
	build := func() []Topology {
		return generatedGraphs(t)
	}
	a, b := build(), build()
	for i := range a {
		var la, lb [][3]int
		a[i].ForEachLink(func(link, from, to int) { la = append(la, [3]int{link, from, to}) })
		b[i].ForEachLink(func(link, from, to int) { lb = append(lb, [3]int{link, from, to}) })
		if len(la) != len(lb) {
			t.Fatalf("%s: rebuild has %d links, first build %d", a[i], len(lb), len(la))
		}
		for j := range la {
			if la[j] != lb[j] {
				t.Fatalf("%s: link %d differs across rebuilds", a[i], j)
			}
		}
	}
	// Degree invariant of the regular constructor.
	rr, err := NewRandomRegular(16, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < rr.N(); u++ {
		if d := len(rr.adj.rows[u]); d != 4 {
			t.Fatalf("node %d has degree %d, want 4", u, d)
		}
	}
}

// TestDegradedMeshDropsLinks: the degraded mesh removes the requested
// links while staying connected (connectivity is verified by NewGraph).
func TestDegradedMeshDropsLinks(t *testing.T) {
	full := 4*3 + 4*3 // undirected edges of a 4x4 mesh
	dm, err := NewDegradedMesh(4, 4, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got := dm.NumLinks() / 2; got != full-5 {
		t.Fatalf("degraded mesh keeps %d edges, want %d", got, full-5)
	}
}

// degradedMeshReference is NewDegradedMesh's kept-edge computation as it
// was before the reusable connectivity scratch: an adjacency list rebuilt
// with append for every candidate edge.
func degradedMeshReference(rows, cols, drop int, seed uint64) [][2]int {
	n := rows * cols
	var edges [][2]int
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{r*cols + c, r*cols + c + 1})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{r*cols + c, (r+1)*cols + c})
			}
		}
	}
	connected := func(removed []bool) bool {
		adj := make([][]int, n)
		for ei, e := range edges {
			if !removed[ei] {
				adj[e[0]] = append(adj[e[0]], e[1])
				adj[e[1]] = append(adj[e[1]], e[0])
			}
		}
		seen := make([]bool, n)
		seen[0] = true
		stack, count := []int{0}, 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					count++
					stack = append(stack, v)
				}
			}
		}
		return count == n
	}
	removed := make([]bool, len(edges))
	dropped := 0
	for _, ei := range xrand.New(seed).Perm(len(edges)) {
		if dropped >= drop {
			break
		}
		removed[ei] = true
		if connected(removed) {
			dropped++
		} else {
			removed[ei] = false
		}
	}
	var kept [][2]int
	for ei, e := range edges {
		if !removed[ei] {
			kept = append(kept, e)
		}
	}
	return kept
}

// TestDegradedMeshKeptEdgesUnchanged: the one-adjacency connectivity
// check keeps exactly the edges the per-candidate rebuild kept — also when
// most candidates are refused — and a 16×16 build stays in the allocation
// range of the other graph families instead of ten times above it.
func TestDegradedMeshKeptEdgesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		rows, cols, drop int
		seed             uint64
	}{
		{4, 4, 5, 99}, {8, 8, 11, 1}, {16, 16, 48, 0x67726170685f3842 ^ 256},
		{5, 9, 1000, 7}, // far more than can go: ends as a spanning tree
		{1, 6, 2, 3},    // a path: nothing can go
	} {
		g, err := NewDegradedMesh(tc.rows, tc.cols, tc.drop, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		want := degradedMeshReference(tc.rows, tc.cols, tc.drop, tc.seed)
		if len(g.edges) != len(want) {
			t.Fatalf("%dx%d drop %d: kept %d edges, reference %d", tc.rows, tc.cols, tc.drop, len(g.edges), len(want))
		}
		for i := range want { // both lists ascend: NewGraph sorts, the mesh enumeration already is
			if g.edges[i] != want[i] {
				t.Fatalf("%dx%d drop %d: edge %d is %v, reference %v", tc.rows, tc.cols, tc.drop, i, g.edges[i], want[i])
			}
		}
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := NewDegradedMesh(16, 16, 48, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4000 {
		t.Errorf("NewDegradedMesh(16x16) = %.0f allocs, want the ~3 000 of the other graph builders", allocs)
	}
}
