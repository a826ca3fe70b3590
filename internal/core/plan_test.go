package core_test

import (
	"runtime"
	"testing"
	"unsafe"

	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/core/fixedhome"
	"diva/internal/decomp"
	"diva/internal/mesh"
	"diva/internal/sim"
)

// planTraffic runs reads, writes and barriers all over the machine — a
// variable per processor, so nearly as many embedding tables, and routes
// between most tree-node hosts — and returns the run's fingerprint.
func planTraffic(t *testing.T, m *core.Machine) uint64 {
	t.Helper()
	n := m.P()
	vars := make([]core.VarID, n)
	for i := range vars {
		vars[i] = m.AllocAt(i, 64, i)
	}
	err := m.Run(func(p *core.Proc) {
		for r := 1; r <= 3; r++ {
			_ = p.Read(vars[(p.ID*7+r*13)%n])
			p.Barrier()
			if p.ID%3 == r%3 {
				p.Write(vars[(p.ID+r)%n], r)
			}
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return m.K.Fingerprint()
}

// TestPlanAtCeilingSameFingerprint: a plan that may memoize nothing, or
// that fills up in the middle of the run, walks the routes and computes the
// embedding tables it cannot keep — the simulated machine is the same.
func TestPlanAtCeilingSameFingerprint(t *testing.T) {
	cfg := core.Config{Topology: mesh.New(16, 16), Seed: 11, Tree: decomp.Ary2, Strategy: accesstree.Factory()}
	want := planTraffic(t, core.MustNewMachine(cfg))
	for _, lim := range []struct {
		name       string
		route, pos int
	}{
		{"nothing", 0, 0},
		{"one-chunk", 256 << 10, 16 << 10},
	} {
		m, err := core.NewMachineWithLimits(cfg, lim.route, lim.pos)
		if err != nil {
			t.Fatal(err)
		}
		if got := planTraffic(t, m); got != want {
			t.Errorf("%s: fingerprint %#x, want %#x", lim.name, got, want)
		}
		// The pair table of 256 processors is 256 KB; links come on top.
		if b := m.Plan.Routes.Bytes(); b > int64(256<<10+lim.route) {
			t.Errorf("%s: route memo holds %d bytes, past its limit", lim.name, b)
		}
	}
}

// TestForkAllocBudget pins what a fork costs now that the plan is shared:
// the per-machine state only — links, clocks, inboxes, caches, kernel —
// never the tree, the route table or the embedding tables. A fork of a
// warmed machine lends its variables: it makes the records of one —
// Variable, varState, local-copy word, node table — only when the query
// reaches it.
func TestForkAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		n      int
		bytes  uint64
		allocs float64
	}{
		{16, 128 << 10, 1000},
		{32, 1 << 20, 1000},
	} {
		for _, strat := range []struct {
			name string
			tree decomp.Spec
			f    core.Factory
		}{
			{"at4", decomp.Ary4, accesstree.Factory()},
			{"handopt", decomp.Ary2, nil},
		} {
			m := core.MustNewMachine(core.Config{Rows: tc.n, Cols: tc.n, Seed: 1, Tree: strat.tree, Strategy: strat.f})
			bytes, allocs := forkCost(t, m, nil)
			if allocs > tc.allocs || bytes > tc.bytes {
				t.Errorf("fork of a birth %dx%d %s snapshot: %d bytes in %.0f allocations, budget %d in %.0f",
					tc.n, tc.n, strat.name, bytes, allocs, tc.bytes, tc.allocs)
			}
		}
	}

	// A fork of a birth 4×4 snapshot makes only the machine's own records:
	// the Machine, Kernel and Network records (the Network's kind tables
	// have 32 slots); a link record, a clock and a LinkLoad, for each link
	// slot; per node the network's two CPU clocks and inbox slot and the
	// barrier's waiter and wake-up words, 48 bytes; the barrier record (200
	// bytes; its arrival slots come at the first arrival); a random stream
	// (32) for the machine and one for a strategy; and the strategy's record
	// and a lock record a node, within 1 KiB (at4: 368 + 16 × 24). The
	// records' size classes round the sum up by 4 to 5 % (the Kernel's 904
	// bytes take 1 024): a sixteenth covers that, and a barrier that keeps
	// a 352-byte record, an arrival map and an epoch word a node does not
	// fit. No cache record: none of the three has a cache bound, and each
	// node's would add 96 bytes.
	for _, strat := range []struct {
		name string
		tree decomp.Spec
		f    core.Factory
	}{
		{"at4", decomp.Ary4, accesstree.Factory()},
		{"fixedhome", decomp.Ary4, fixedhome.Factory()},
		{"handopt", decomp.Ary2, nil},
	} {
		m := core.MustNewMachine(core.Config{Rows: 4, Cols: 4, Seed: 1, Tree: strat.tree, Strategy: strat.f})
		budget := unsafe.Sizeof(core.Machine{}) + unsafe.Sizeof(sim.Kernel{}) + unsafe.Sizeof(mesh.Network{}) +
			uintptr(m.Topo.NumLinks())*(unsafe.Sizeof(sim.Time(0))+unsafe.Sizeof(mesh.LinkLoad{})) +
			uintptr(m.P())*48 + 200 + 32
		if strat.f != nil {
			budget += 32 + 1<<10
		}
		budget += budget / 16
		bytes, allocs := forkCost(t, m, nil)
		t.Logf("birth 4x4 %s: %d bytes in %.0f allocations, budget %d", strat.name, bytes, allocs, budget)
		if bytes > uint64(budget) || allocs > 1000 {
			t.Errorf("fork of a birth 4x4 %s snapshot: %d bytes in %.0f allocations, budget %d in 1000",
				strat.name, bytes, allocs, budget)
		}
	}

	// The warmed cases, against what a fork of a birth 8×8 machine costs.
	// While the query touches no variable, a fork pays per live variable
	// its nil slot among the fork's variables and its lent bit — 8 bytes
	// and a bit, plus the slots of the freed variables (a third as many
	// again after Barnes-Hut) — within 16 bytes. A query that touches every
	// variable makes, per variable, a Variable and a varState record (120
	// bytes each), a local-copy word and the node table it restores into:
	// on the 85-node tree an 80-byte page set and one to three pages of 192
	// bytes, or a 680-byte full table. That is at most 928 bytes, within
	// 1 000 with the blocks' and arenas' slack (measured: 675.4).
	birth, _ := forkCost(t, core.MustNewMachine(core.Config{Rows: 8, Cols: 8, Seed: 1, Tree: decomp.Ary4, Strategy: accesstree.Factory()}), nil)
	m := warmedMachine(t)
	live := uint64(core.LiveVarCount(m))
	for _, tc := range []struct {
		name  string
		query func(*core.Machine)
		per   uint64
	}{
		{"untouched", nil, 16},
		{"all touched", core.BorrowAll, 1000},
	} {
		bytes, allocs := forkCost(t, m, tc.query)
		t.Logf("%s: %d bytes (birth %d + %.1f a variable) in %.0f allocations", tc.name, bytes, birth, float64(bytes-birth)/float64(live), allocs)
		if budget := birth + tc.per*live; bytes > budget || allocs > 1000 {
			t.Errorf("fork of an 8x8 at4 snapshot warmed by Barnes-Hut (%d variables), %s: %d bytes in %.0f allocations, budget %d in 1000",
				live, tc.name, bytes, allocs, budget)
		}
	}
}

// forkCost snapshots m and returns the bytes and the allocations of one
// fork of the snapshot, and of query on the fork if it is not nil.
func forkCost(t *testing.T, m *core.Machine, query func(*core.Machine)) (bytes uint64, allocs float64) {
	t.Helper()
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork := func() {
		f, err := snap.Fork(core.ForkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if f.Tree != m.Tree {
			t.Fatal("fork rebuilt the tree")
		}
		if query != nil {
			query(f)
		}
	}
	allocs = testing.AllocsPerRun(5, fork)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fork()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, allocs
}
