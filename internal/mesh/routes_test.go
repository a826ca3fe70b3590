package mesh

import (
	"sync"
	"testing"

	"diva/internal/sim"
)

// checkAllPairs routes every pair through nw, starting at pair offset
// start, and compares with the topology's own walk.
func checkAllPairs(t *testing.T, nw *Network, start int) {
	n := nw.T.N()
	var walk []int
	for i := 0; i < n*n; i++ {
		src, dst := (i+start)%(n*n)/n, (i+start)%(n*n)%n
		if src == dst {
			continue
		}
		walk = nw.T.AppendRoute(walk[:0], src, dst)
		got := nw.healthyPath(src, dst)
		if len(got) != len(walk) {
			t.Errorf("route %d->%d has %d links, want %d", src, dst, len(got), len(walk))
			return
		}
		for j := range walk {
			if int(got[j]) != walk[j] {
				t.Errorf("route %d->%d differs at link %d", src, dst, j)
				return
			}
		}
	}
}

// TestRoutesFullMemoWalks: a memo that fills up in the middle keeps
// serving what it holds and walks the rest, every route still the
// topology's; it never grows past its limit.
func TestRoutesFullMemoWalks(t *testing.T) {
	topo := New(16, 16) // 65 280 routes of 10.7 links on average: 2.8 MB complete
	const limit = 512 << 10
	r := NewRoutes(topo, limit)
	nw := NewNetworkOn(sim.New(), r, GCelParams())
	checkAllPairs(t, nw, 0)
	checkAllPairs(t, nw, 0) // again, now from the memo where it holds the route
	if !r.full.Load() {
		t.Fatal("the memo did not fill up")
	}
	if table := int64(4 * 256 * 256); r.Bytes() > table+limit || r.Bytes() < table+limit/2 {
		t.Errorf("memo holds %d bytes, want the %d-byte table plus at most %d", r.Bytes(), table, limit)
	}
	if r.get(0, 1) == nil || r.get(255, 254) != nil {
		t.Error("expected the first pair memoized and the last one not")
	}
}

// TestRoutesConcurrentFill: networks on eight goroutines fill one memo at
// once, each starting elsewhere; every route every one of them sees is the
// topology's. Meaningful under -race.
func TestRoutesConcurrentFill(t *testing.T) {
	topo := NewTorus(8, 8)
	r := NewRoutes(topo, RouteBytesMax)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			checkAllPairs(t, NewNetworkOn(sim.New(), r, GCelParams()), g*517)
		}(g)
	}
	wg.Wait()
}
