package accesstree

import (
	"testing"

	"diva/internal/core"
	"diva/internal/core/coretest"
	"diva/internal/decomp"
)

// TestZeroAllocTransactions: no protocol transaction allocates once the
// pools are warm — not a write's invalidation multicast, not a lock
// hand-off, and not the replacement traffic of a bounded cache.
func TestZeroAllocTransactions(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tree  decomp.Spec
		cache int
	}{
		{"at4", decomp.Ary4, 0},
		{"at2", decomp.Ary2, 0},
		{"at4-bounded", decomp.Ary4, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coretest.ZeroAllocTransactions(t, core.Config{
				Rows: 4, Cols: 4, Seed: 7, Tree: tc.tree, Strategy: Factory(), CacheCapacity: tc.cache,
			})
		})
	}
}
