package fixedhome

import (
	"testing"

	"diva/internal/core"
	"diva/internal/core/coretest"
	"diva/internal/decomp"
)

// TestZeroAllocTransactions: no protocol transaction allocates once the
// pools are warm — not a write's invalidation wave, not a lock hand-off
// through the home's queue, not the eviction notes of a bounded cache, and
// not the sequencing, acks and timers of the reactive transport.
func TestZeroAllocTransactions(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cache    int
		recovery string
	}{
		{"unbounded", 0, ""},
		{"bounded", 100, ""},
		{"reactive", 0, core.RecoveryReactive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coretest.ZeroAllocTransactions(t, core.Config{
				Rows: 4, Cols: 4, Seed: 7, Tree: decomp.Ary2, Strategy: Factory(), CacheCapacity: tc.cache,
				Recovery: tc.recovery,
			})
		})
	}
}
