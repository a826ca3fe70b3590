package stencil

import (
	"testing"

	"diva/internal/core"
	"diva/internal/decomp"
	"diva/topology"
)

// TestForkRunAllocations bounds what a fork + run of the one-iteration
// stencil allocates, with Check off as the service runs it: the halo
// messages are pooled, the inbox copies them into queues and receiver
// records carved from chunks, and the neighbor lists share one array, so
// nothing is allocated per message, per receive or per node; the pool
// and the receiver records come from the run before
// (testing.AllocsPerRun runs once first), handed over when it drained. What
// is left is the fork and process start-up, the same for any program: 46
// objects at 16×16 (0.18 per processor) and 50 at 32×32 (0.05) — 68 and 79
// while the barrier kept a map of its arrivals, 157 and 216 while each
// fork grew its own pool and records, 17.8 per processor when every
// message and every blocking receive allocated.
func TestForkRunAllocations(t *testing.T) {
	cfg := Config{Iters: 1, HaloInts: 64, WithCompute: true, OpUS: 0.5, Seed: 7}
	for _, side := range []int{16, 32} {
		m := core.MustNewMachine(core.Config{Rows: side, Cols: side, Seed: 1, Tree: decomp.Ary2})
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			f, err := snap.Fork(core.ForkOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(f, cfg); err != nil {
				t.Fatal(err)
			}
		})
		p := float64(side * side)
		t.Logf("%dx%d: %.0f objects per fork + run, %.2f per processor", side, side, allocs, allocs/p)
		if allocs > 0.5*p {
			t.Errorf("%dx%d: fork + run allocates %.0f objects, budget %.0f", side, side, allocs, 0.5*p)
		}
	}
}

// TestCheckedRun runs the exchange with real halo values on a grid and on
// a graph topology (ring neighbors) and verifies every checksum.
func TestCheckedRun(t *testing.T) {
	for _, name := range []string{"mesh", "graph:regular"} {
		topo, err := topology.Build(name, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		m := core.MustNewMachine(core.Config{Topology: topo, Seed: 1, Tree: decomp.Ary2})
		res, err := Run(m, Config{Iters: 3, HaloInts: 16, Check: true, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Verified || res.Iters != 3 || res.ElapsedUS <= 0 {
			t.Fatalf("%s: result %+v", name, res)
		}
	}
}
