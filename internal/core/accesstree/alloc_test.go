package accesstree

import (
	"testing"

	"diva/internal/core"
	"diva/internal/core/coretest"
	"diva/internal/decomp"
)

// TestZeroAllocTransactions: no protocol transaction allocates once the
// pools are warm — not a write's invalidation multicast, not a lock
// hand-off, not the replacement traffic of a bounded cache, and not the
// sequencing, acks and timers of the reactive transport. The 4×4
// trees are small enough that every node table is full; on the 16×16 one
// (341 nodes) the tables of the transactions stay sparse.
func TestZeroAllocTransactions(t *testing.T) {
	for _, tc := range []struct {
		name     string
		side     int
		tree     decomp.Spec
		cache    int
		recovery string
	}{
		{"at4", 4, decomp.Ary4, 0, ""},
		{"at2", 4, decomp.Ary2, 0, ""},
		{"at4-bounded", 4, decomp.Ary4, 100, ""},
		{"at4-16x16-sparse", 16, decomp.Ary4, 0, ""},
		{"at4-reactive", 4, decomp.Ary4, 0, core.RecoveryReactive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{
				Rows: tc.side, Cols: tc.side, Seed: 7, Tree: tc.tree, Strategy: Factory(), CacheCapacity: tc.cache,
				Recovery: tc.recovery,
			}
			if sparse := newNodeTables(len(core.MustNewMachine(cfg).Tree.Nodes)).maxPages > 0; sparse != (tc.side == 16) {
				t.Fatalf("sparse tables %v on a %dx%d machine", sparse, tc.side, tc.side)
			}
			coretest.ZeroAllocTransactions(t, cfg)
		})
	}
}
