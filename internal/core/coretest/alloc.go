// Package coretest holds test helpers shared by the strategy packages.
package coretest

import (
	"testing"

	"diva/internal/core"
)

// ZeroAllocTransactions asserts that, once warm, the machine described by
// cfg (4x4 or larger, with a strategy) runs each protocol transaction
// without a single heap allocation:
//
//   - readwrite: four remote reads of each of two variables, then a remote
//     write to each that invalidates those copies (on a bounded-cache
//     machine the second read evicts the first copy, so the eviction-note
//     path runs too);
//   - lock: two processors contend for a variable's lock, so it is handed
//     from one to the other;
//   - barrier: one barrier epoch (which also paces the other two shapes).
func ZeroAllocTransactions(t *testing.T, cfg core.Config) {
	t.Helper()
	readers := map[int]bool{3: true, 6: true, 9: true, 12: true}
	const writer, lockA, lockB = 15, 5, 10
	shapes := []struct {
		name  string
		round func(p *core.Proc, a, b core.VarID, i int)
	}{
		{"readwrite", func(p *core.Proc, a, b core.VarID, i int) {
			if readers[p.ID] {
				p.Read(a)
				p.Read(b)
			}
			p.Barrier()
			if p.ID == writer {
				// Small ints convert to interface{} without allocating.
				p.Write(a, i&1)
				p.Write(b, i&1)
			}
		}},
		{"lock", func(p *core.Proc, a, _ core.VarID, _ int) {
			if p.ID == lockA || p.ID == lockB {
				p.Lock(a)
				p.Unlock(a)
			}
		}},
		{"barrier", func(*core.Proc, core.VarID, core.VarID, int) {}},
	}
	for _, sh := range shapes {
		m := core.MustNewMachine(cfg)
		a, b := m.AllocAt(0, 64, 0), m.AllocAt(1, 64, 0)
		// A few warm-up rounds size every pool, arena and queue; the
		// measured ones must then allocate nothing at all.
		const warm, runs = 4, 25
		var allocs float64
		err := m.Run(func(p *core.Proc) {
			i := 0
			round := func() {
				sh.round(p, a, b, i)
				p.Barrier()
				i++
			}
			for w := 0; w < warm; w++ {
				round()
			}
			if p.ID == 0 {
				allocs = testing.AllocsPerRun(runs, round) // runs+1 rounds
				return
			}
			for r := 0; r <= runs; r++ {
				round()
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per transaction, want 0", sh.name, allocs)
		}
		if sh.name == "readwrite" {
			// The bounded machine must really have replaced copies.
			var ev uint64
			for p := 0; p < m.P(); p++ {
				ev += m.Cache(p).Evictions()
			}
			if (ev > 0) != (cfg.CacheCapacity > 0) {
				t.Errorf("%d evictions with cache capacity %d", ev, cfg.CacheCapacity)
			}
		}
	}
}
