package diva_test

import (
	"runtime"
	"sync"
	"testing"

	"diva"
)

// TestForkSharedPlanConcurrent runs forks of one 16×16 snapshot and fresh
// machines on the same topology side by side, each on its own workload.
// They all read and lazily fill one machine plan (route memo, embedding
// tables), so every fingerprint must equal the one the same job produces
// when it runs alone — whichever machine happened to fill an entry — and
// the forks must share the source's tree by reference, not rebuild it.
// Run under -race: it is the concurrency test of the plan's publish-once
// tables.
func TestForkSharedPlanConcurrent(t *testing.T) {
	newMachine := func(strat string, seed uint64) *diva.Machine {
		return diva.MustNew(diva.WithMesh(16, 16), diva.WithStrategyName(strat),
			diva.WithSeed(seed), diva.WithConcurrent(true))
	}
	src := newMachine("at4", 5)
	mustRun(t, src, diva.Matmul(diva.MatmulConfig{BlockInts: 4, Seed: 1}))
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	matmul := func(block int) diva.Workload {
		return diva.Matmul(diva.MatmulConfig{BlockInts: block, Seed: 3})
	}
	bitonic := func(keys int) diva.Workload {
		return diva.Bitonic(diva.BitonicConfig{KeysPerProc: keys, Seed: 4})
	}
	jobs := []struct {
		name  string
		fresh string // strategy of a fresh machine; "" forks the snapshot
		w     func() diva.Workload
	}{
		{"fork/matmul9", "", func() diva.Workload { return matmul(9) }},
		{"fork/matmul16", "", func() diva.Workload { return matmul(16) }},
		{"fork/matmul25", "", func() diva.Workload { return matmul(25) }},
		{"fork/bitonic4", "", func() diva.Workload { return bitonic(4) }},
		{"fork/stencil", "", func() diva.Workload { return diva.Stencil(diva.StencilConfig{Iters: 2, HaloInts: 8, Seed: 6}) }},
		{"fresh/at4/matmul9", "at4", func() diva.Workload { return matmul(9) }},
		{"fresh/at4/matmul16", "at4", func() diva.Workload { return matmul(16) }},
		{"fresh/fixedhome/matmul9", "fixedhome", func() diva.Workload { return matmul(9) }},
		{"fresh/fixedhome/matmul25", "fixedhome", func() diva.Workload { return matmul(25) }},
	}
	run := func(i int) (uint64, *diva.Machine, error) {
		j := jobs[i]
		m := (*diva.Machine)(nil)
		if j.fresh != "" {
			m = newMachine(j.fresh, 9)
		} else {
			var err error
			if m, err = diva.Fork(snap, diva.ForkConcurrent(true)); err != nil {
				return 0, nil, err
			}
		}
		if _, err := j.w().Run(m, nil); err != nil {
			return 0, nil, err
		}
		return m.K.Fingerprint(), m, nil
	}
	// All nine at once first, while the plan's tables are still mostly
	// empty, so the jobs race to fill them.
	got := make([]uint64, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fp, m, err := run(i)
			if err != nil {
				t.Errorf("%s concurrent: %v", jobs[i].name, err)
				return
			}
			got[i] = fp
			if m.Tree != src.Tree || m.Plan != src.Plan {
				t.Errorf("%s: machine does not share the source machine's plan and tree", jobs[i].name)
			}
		}(i)
	}
	wg.Wait()
	for i, j := range jobs {
		fp, _, err := run(i)
		if err != nil {
			t.Fatalf("%s alone: %v", j.name, err)
		}
		if got[i] != fp {
			t.Errorf("%s: fingerprint %#x concurrent, %#x alone", j.name, got[i], fp)
		}
	}
}

// TestNamedGraphSharedAcrossMachines: machines selecting a graph by
// registry name get one instance of it (topology.Build remembers it), so
// they find one plan per tree spec, and across tree specs one route memo.
func TestNamedGraphSharedAcrossMachines(t *testing.T) {
	newMachine := func(strat string) *diva.Machine {
		return diva.MustNew(diva.WithTopologyName("graph:er", 6, 6), diva.WithStrategyName(strat), diva.WithConcurrent(true))
	}
	a, b, c := newMachine("at4"), newMachine("at4"), newMachine("at2")
	if a.Topo != c.Topo || a.Plan != b.Plan {
		t.Fatalf("same named graph: one instance %v, one plan per tree spec %v", a.Topo == c.Topo, a.Plan == b.Plan)
	}
	if a.Plan == c.Plan || a.Tree == c.Tree || a.Plan.Routes != c.Plan.Routes {
		t.Fatalf("tree specs: own plan %v, shared route memo %v", a.Plan != c.Plan, a.Plan.Routes == c.Plan.Routes)
	}
}

// TestRunAllocBudget pins what one service request costs end to end once
// the process is warm: the second fork + run of a small DSM cell and of a
// large hand-optimized one. The fork is per-machine state only
// (TestForkAllocBudget in internal/core); the run starts on the event
// storage the first one handed to the kernel stock and on its message
// pool, receiver and transaction records, so it grows no queue or pool
// from nothing, and its processes on the workers the first one left
// in the process stock, so it starts no goroutine and allocates one slab
// of process records.
func TestRunAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name  string
		m     *diva.Machine
		w     func() diva.Workload
		bytes uint64
		objs  uint64
	}{
		{"4x4 at4 matmul(16)",
			diva.MustNew(diva.WithMesh(4, 4), diva.WithStrategyName("at4"), diva.WithSeed(1)),
			func() diva.Workload { return diva.Matmul(diva.MatmulConfig{BlockInts: 16, Seed: 1}) },
			48 << 10, 120}, // measured 25 KB, 65 objects (72 with the barrier's arrival map); 71 KB, 146 while each run grew its own pool and records
		{"32x32 handopt stencil(1)",
			diva.MustNew(diva.WithMesh(32, 32), diva.WithTree(diva.Ary2), diva.WithSeed(1)),
			func() diva.Workload { return diva.Stencil(diva.StencilConfig{Iters: 1, HaloInts: 64, Seed: 1}) },
			800 << 10, 150}, // measured 0.45 MB, 54 objects (0.5 MB, 83 with the barrier's arrival map); 1.4 MB, 220 with a pool of its own, 18 248 while each message and blocking receive allocated
	} {
		snap, err := tc.m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		forkRun := func() {
			f, err := diva.Fork(snap)
			if err != nil {
				t.Fatal(err)
			}
			mustRun(t, f, tc.w())
		}
		forkRun()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		forkRun()
		runtime.ReadMemStats(&after)
		got, objs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("%s: second fork + run allocates %d bytes, %d objects", tc.name, got, objs)
		if got > tc.bytes || objs > tc.objs {
			t.Errorf("%s: second fork + run allocates %d bytes, %d objects; budget %d, %d", tc.name, got, objs, tc.bytes, tc.objs)
		}
	}
}
