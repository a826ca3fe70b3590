package accesstree

import (
	"strings"
	"testing"

	"diva/internal/core"
	"diva/internal/decomp"
	"diva/internal/xrand"
)

// The tests in this file are white-box: after driving random read/write
// traffic through the protocol they inspect the per-variable tree state and
// verify the structural invariants the competitive analysis relies on:
//
//  1. the copy holders form a non-empty connected component of the tree;
//  2. every directional pointer chain leads to a copy holder;
//  3. component edge bits are symmetric and span the component;
//  4. the committed value is the last value written;
//  5. nothing of a finished transaction survives it: no pending-ack count,
//     no write continuation, no lock holder, queue link or waiter;
//  6. the lock arrows of every node lead to the leaf the token rests at;
//  7. the machine's local-copy bitmap marks exactly the processors whose
//     leaf holds a copy.

func newTestMachine(spec decomp.Spec, rows, cols int, seed uint64) *core.Machine {
	return core.MustNewMachine(core.Config{
		Rows: rows, Cols: cols, Seed: seed, Tree: spec,
		Strategy: Factory(),
	})
}

// members collects the member node set of a variable.
func members(s *strategy, v *core.Variable) map[int]bool {
	vs := vstate(v)
	set := make(map[int]bool)
	for id := range s.t.Nodes {
		if vs.nodes[id].member {
			set[id] = true
		}
	}
	return set
}

// checkInvariants validates the four protocol invariants for one variable.
func checkInvariants(t *testing.T, m *core.Machine, v *core.Variable, want interface{}) {
	t.Helper()
	s := m.Strat.(*strategy)
	vs := vstate(v)
	set := members(s, v)
	if len(set) == 0 {
		t.Fatal("no copy of the variable exists")
	}

	// 1. Connectivity: BFS through tree edges within the member set.
	var start int
	for id := range set {
		start = id
		break
	}
	visited := map[int]bool{start: true}
	queue := []int{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		n := &s.t.Nodes[cur]
		nbs := append([]int{}, n.Children...)
		if n.Parent != -1 {
			nbs = append(nbs, n.Parent)
		}
		for _, nb := range nbs {
			if set[nb] && !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if len(visited) != len(set) {
		t.Fatalf("copy component disconnected: %d members, %d reachable", len(set), len(visited))
	}

	// 2. Pointer chains terminate at members.
	for id := range s.t.Nodes {
		cur := id
		for steps := 0; ; steps++ {
			if steps > len(s.t.Nodes) {
				t.Fatalf("pointer chain from node %d does not terminate", id)
			}
			st := vs.nodes[cur]
			if st.member {
				break
			}
			switch st.toward {
			case towardUp:
				cur = s.t.Nodes[cur].Parent
				if cur == -1 {
					t.Fatalf("pointer chain from %d ran past the root", id)
				}
			case towardSelf:
				t.Fatalf("non-member node %d points to itself", cur)
			default:
				cur = s.t.Nodes[cur].Children[st.toward]
			}
		}
	}

	// 3. Edge bits: symmetric, only between members, spanning the component.
	for id := range set {
		st := vs.nodes[id]
		n := &s.t.Nodes[id]
		if st.edges&parentBit != 0 {
			if n.Parent == -1 {
				t.Fatalf("root node %d has a parent edge bit", id)
			}
			if !set[n.Parent] {
				t.Fatalf("edge bit from %d to non-member parent", id)
			}
			pst := vs.nodes[n.Parent]
			if pst.edges&childBit(n.ChildIndex) == 0 {
				t.Fatalf("asymmetric edge bits between %d and parent %d", id, n.Parent)
			}
		}
		for i, c := range n.Children {
			if st.edges&childBit(i) != 0 {
				if !set[c] {
					t.Fatalf("edge bit from %d to non-member child %d", id, c)
				}
				cst := vs.nodes[c]
				if cst.edges&parentBit == 0 {
					t.Fatalf("asymmetric edge bits between %d and child %d", id, c)
				}
			}
		}
	}
	// Spanning: BFS along edge bits only.
	visited = map[int]bool{start: true}
	queue = []int{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		st := vs.nodes[cur]
		n := &s.t.Nodes[cur]
		if st.edges&parentBit != 0 && !visited[n.Parent] {
			visited[n.Parent] = true
			queue = append(queue, n.Parent)
		}
		for i, c := range n.Children {
			if st.edges&childBit(i) != 0 && !visited[c] {
				visited[c] = true
				queue = append(queue, c)
			}
		}
	}
	if len(visited) != len(set) {
		t.Fatalf("edge bits do not span the component: %d of %d", len(visited), len(set))
	}

	// 4. Value.
	if v.Data != want {
		t.Fatalf("committed value %v, want %v", v.Data, want)
	}

	// 5. Quiescence: no transaction state outlives its transaction.
	for id := range vs.nodes {
		if n := vs.nodes[id].acks; n != 0 {
			t.Fatalf("node %d still waits for %d invalidation acks", id, n)
		}
	}
	if vs.write != nil {
		t.Fatal("a write continuation survived its transaction")
	}
	if ls := vs.lock; ls.inFlight || !ls.tokenFree || ls.holder != -1 || ls.succ != -1 {
		t.Fatalf("lock not at rest: %+v", ls)
	}
	for p, w := range s.lockers {
		if w != (locker{next: -1}) {
			t.Fatalf("processor %d still has a lock wait: %+v", p, w)
		}
	}

	// 6. Arrow chains terminate at the token.
	for id := range s.t.Nodes {
		cur := id
		for steps := 0; vs.nodes[cur].arrow != towardSelf; steps++ {
			if steps > len(s.t.Nodes) {
				t.Fatalf("arrow chain from node %d does not terminate", id)
			}
			if cur = s.neighbor(cur, vs.nodes[cur].arrow); cur == -1 {
				t.Fatalf("arrow chain from %d ran past the root", id)
			}
		}
		if cur != vs.lock.tokenAt {
			t.Fatalf("arrows from node %d lead to %d, the token rests at %d", id, cur, vs.lock.tokenAt)
		}
	}

	// 7. The local-copy bitmap mirrors leaf membership.
	for p, leaf := range s.t.LeafOfProc {
		if v.LocalBit(p) != vs.nodes[leaf].member {
			t.Fatalf("processor %d: local bit %v, leaf member %v", p, v.LocalBit(p), vs.nodes[leaf].member)
		}
	}
}

func TestInvariantsAfterSingleRead(t *testing.T) {
	m := newTestMachine(decomp.Ary2, 4, 4, 1)
	v := m.AllocAt(0, 64, "x")
	if err := m.Run(func(p *core.Proc) {
		if p.ID == 15 {
			p.Read(v)
		}
	}); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, m, m.Var(v), "x")
	s := m.Strat.(*strategy)
	set := members(s, m.Var(v))
	// The component must contain both leaves.
	if !set[s.t.LeafOfProc[0]] || !set[s.t.LeafOfProc[15]] {
		t.Fatal("read did not leave copies at both endpoints")
	}
}

func TestInvariantsAfterWriteShrinksComponent(t *testing.T) {
	m := newTestMachine(decomp.Ary2, 4, 4, 2)
	v := m.AllocAt(0, 64, 0)
	if err := m.Run(func(p *core.Proc) {
		_ = p.Read(v) // everyone holds a copy
		p.Barrier()
		if p.ID == 5 {
			p.Write(v, 99)
		}
	}); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, m, m.Var(v), 99)
	s := m.Strat.(*strategy)
	set := members(s, m.Var(v))
	// After the write the component is the path from the old nearest
	// member (the writer's own leaf, since it held a copy) — so just the
	// writer's leaf.
	if !set[s.t.LeafOfProc[5]] {
		t.Fatal("writer does not hold a copy after its write")
	}
	if len(set) != 1 {
		t.Fatalf("component has %d members after a write by a holder, want 1", len(set))
	}
}

func TestWriteByNonHolderLeavesPathCopies(t *testing.T) {
	m := newTestMachine(decomp.Ary2, 4, 4, 3)
	v := m.AllocAt(0, 64, 0)
	if err := m.Run(func(p *core.Proc) {
		if p.ID == 12 {
			p.Write(v, 7)
		}
	}); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, m, m.Var(v), 7)
	s := m.Strat.(*strategy)
	set := members(s, m.Var(v))
	// Component = tree path from the creator's leaf (nearest member) to
	// the writer's leaf.
	path := s.t.TreePath(s.t.LeafOfProc[0], s.t.LeafOfProc[12])
	if len(set) != len(path) {
		t.Fatalf("component size %d, want path length %d", len(set), len(path))
	}
	for _, n := range path {
		if !set[n] {
			t.Fatalf("path node %d missing from component", n)
		}
	}
}

// TestRandomTrafficInvariantsRandomEmbedding repeats the random-traffic
// invariant check under the theoretical analysis' embedding (ablation D1),
// with and without remapping.
func TestRandomTrafficInvariantsRandomEmbedding(t *testing.T) {
	for _, threshold := range []int{0, 6} {
		m := core.MustNewMachine(core.Config{
			Rows: 4, Cols: 4, Seed: 31, Tree: decomp.Ary2,
			Strategy: FactoryOpts(Options{RandomEmbedding: true, RemapThreshold: threshold}),
		})
		const nvars = 5
		vars := make([]core.VarID, nvars)
		for i := range vars {
			vars[i] = m.AllocAt(i%m.P(), 32, -1)
		}
		if err := m.Run(func(p *core.Proc) {
			r := xrand.New(uint64(p.ID)*3 + 7)
			for step := 0; step < 10; step++ {
				vi := r.Intn(nvars)
				switch r.Intn(4) {
				case 0:
					p.Write(vars[vi], p.ID*100+step)
				case 1:
					p.Lock(vars[vi])
					p.Unlock(vars[vi])
				default:
					_ = p.Read(vars[vi])
				}
				if step%5 == 4 {
					p.Barrier()
				}
			}
		}); err != nil {
			t.Fatalf("threshold %d: %v", threshold, err)
		}
		for i := range vars {
			v := m.Var(vars[i])
			checkInvariants(t, m, v, v.Data)
		}
	}
}

// TestRandomTrafficInvariants drives random concurrent reads, writes and
// lock acquisitions and then checks every invariant, across arities and
// mesh shapes — up to a 32x32 machine, whose upper 512 processors lie
// beyond the first words of the local-copy bitmap.
func TestRandomTrafficInvariants(t *testing.T) {
	specs := []decomp.Spec{decomp.Ary2, decomp.Ary4, decomp.Ary16, decomp.Ary2K4, decomp.Ary4K16}
	shapes := [][2]int{{4, 4}, {5, 3}, {2, 8}, {8, 8}, {32, 32}}
	for si, spec := range specs {
		for hi, shape := range shapes {
			spec, shape := spec, shape
			name := spec.Name() + "/" + string(rune('a'+hi))
			t.Run(name, func(t *testing.T) {
				m := newTestMachine(spec, shape[0], shape[1], uint64(si*10+hi))
				const nvars = 6
				vars := make([]core.VarID, nvars)
				for i := range vars {
					vars[i] = m.AllocAt(i%m.P(), 32, -1)
				}
				last := make([]interface{}, nvars)
				for i := range last {
					last[i] = -1
				}
				if err := m.Run(func(p *core.Proc) {
					r := xrand.New(uint64(p.ID)*77 + 5)
					for step := 0; step < 12; step++ {
						vi := r.Intn(nvars)
						switch r.Intn(4) {
						case 0:
							p.Write(vars[vi], p.ID*1000+step)
						case 1:
							p.Lock(vars[vi])
							p.Unlock(vars[vi])
						default:
							_ = p.Read(vars[vi])
						}
						// A uniform number of barriers per process keeps
						// the barrier well-formed while still mixing
						// transaction interleavings.
						if step%4 == 3 {
							p.Barrier()
						}
					}
				}); err != nil {
					t.Fatal(err)
				}
				high := false
				for i := range vars {
					v := m.Var(vars[i])
					checkInvariants(t, m, v, v.Data) // value checked reflexively
					high = high || v.NextLocal(512) >= 0
				}
				if m.P() > 512 && !high {
					t.Fatal("no processor beyond 512 holds a locally readable copy")
				}
			})
		}
	}
}

// TestSnapshotRefusesLiveTransactions: a strategy snapshot taken while an
// invalidation multicast or a lock is live reports an error naming it — it
// neither panics nor captures the half-finished state.
func TestSnapshotRefusesLiveTransactions(t *testing.T) {
	m := newTestMachine(decomp.Ary2, 4, 4, 9)
	v := m.AllocAt(0, 64, 0)
	vars := []*core.Variable{m.Var(v)}
	// poll snapshots every 50us of simulated time and returns the first
	// refusal.
	poll := func(p *core.Proc) error {
		for i := 0; i < 100; i++ {
			p.Wait(50)
			if _, err := m.Strat.(core.Forker).SnapshotState(vars); err != nil {
				return err
			}
		}
		return nil
	}
	var duringWrite, duringLock error
	if err := m.Run(func(p *core.Proc) {
		_ = p.Read(v) // everyone holds a copy
		p.Barrier()
		switch p.ID {
		case 5:
			p.Write(v, 1) // multicasts invalidations to all of them
		case 0:
			duringWrite = poll(p)
		}
		p.Barrier()
		switch p.ID {
		case 5:
			p.Lock(v)
			p.Wait(1000)
			p.Unlock(v)
		case 0:
			duringLock = poll(p)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if duringWrite == nil || !strings.Contains(duringWrite.Error(), "pending invalidation") {
		t.Fatalf("snapshot during an invalidation multicast: %v", duringWrite)
	}
	if duringLock == nil || !strings.Contains(duringLock.Error(), "lock") {
		t.Fatalf("snapshot during a held lock: %v", duringLock)
	}
	if _, err := m.Strat.(core.Forker).SnapshotState(vars); err != nil {
		t.Fatalf("snapshot at quiescence: %v", err)
	}
}
