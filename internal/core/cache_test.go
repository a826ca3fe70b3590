package core

import (
	"testing"

	"diva/internal/sim"
)

// White-box tests of the LRU replacement machinery.

// fakeEvictor scripts the strategy side of replacement: copies of the
// variables in pinned refuse eviction, every other copy goes — and is
// removed by the evictor itself unless forget is set.
type fakeEvictor struct {
	c       *Cache
	pinned  map[VarID]bool
	forget  bool
	evicted []VarID
}

func (f *fakeEvictor) TryEvict(v *Variable, node, proc int) bool {
	if f.pinned[v.ID] {
		return false
	}
	f.evicted = append(f.evicted, v.ID)
	if !f.forget {
		f.c.Remove(v.ID, node)
	}
	return true
}

// boundedCache returns a cache of the given capacity wired to a fake
// evictor, plus three 100-byte test variables a, b, c.
func boundedCache(capacity int) (*Cache, *fakeEvictor, [3]*Variable) {
	c := &Cache{capacity: capacity}
	f := &fakeEvictor{c: c, pinned: map[VarID]bool{}}
	c.ev = f
	var vars [3]*Variable
	for i := range vars {
		vars[i] = &Variable{ID: VarID(i), Size: 100}
	}
	return c, f, vars
}

func TestCacheUnboundedIsNoop(t *testing.T) {
	c, f, v := boundedCache(0)
	c.Insert(v[0], 0)
	c.Touch(v[0].ID, 0)
	c.Remove(v[0].ID, 0)
	if c.Bounded() || c.Len() != 0 || c.Bytes() != 0 || len(f.evicted) != 0 {
		t.Fatal("unbounded cache tracked state")
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c, f, v := boundedCache(250)
	c.Insert(v[0], 0)
	c.Insert(v[1], 0)
	c.Touch(v[0].ID, 0) // b is now least recently used
	c.Insert(v[2], 0)
	if len(f.evicted) != 1 || f.evicted[0] != v[1].ID {
		t.Fatalf("evicted %v, want [b]", f.evicted)
	}
	if c.Bytes() != 200 || c.Len() != 2 {
		t.Fatalf("bytes=%d len=%d after eviction", c.Bytes(), c.Len())
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions=%d", c.Evictions())
	}
}

func TestCacheRefusedEvictionSkipped(t *testing.T) {
	c, f, v := boundedCache(150)
	f.pinned[v[0].ID], f.pinned[v[2].ID] = true, true
	c.Insert(v[0], 0)
	c.Insert(v[1], 0)
	// v[0] is LRU but refuses; v[1] must go instead.
	c.Insert(v[2], 0)
	if len(f.evicted) != 1 || f.evicted[0] != v[1].ID {
		t.Fatalf("evicted %v, want [free]", f.evicted)
	}
	// The cache can stay over capacity when nothing is evictable.
	if c.Bytes() != 200 {
		t.Fatalf("bytes=%d", c.Bytes())
	}
}

func TestCacheDuplicateInsertRefreshes(t *testing.T) {
	c, _, v := boundedCache(300)
	c.Insert(v[0], 0)
	c.Insert(v[0], 0)
	if c.Bytes() != 100 || c.Len() != 1 {
		t.Fatalf("duplicate insert double-counted: bytes=%d len=%d", c.Bytes(), c.Len())
	}
	// The same variable under another node is another copy.
	c.Insert(v[0], 1)
	if c.Bytes() != 200 || c.Len() != 2 {
		t.Fatalf("second copy not tracked: bytes=%d len=%d", c.Bytes(), c.Len())
	}
}

func TestCacheRemoveUnknownIgnored(t *testing.T) {
	c, _, _ := boundedCache(100)
	c.Remove(7, 0) // must not panic
	c.Touch(7, 0)
	if c.Len() != 0 {
		t.Fatal("phantom entry appeared")
	}
}

func TestCacheEvictorForgotRemoveGuard(t *testing.T) {
	c, f, v := boundedCache(150)
	f.forget = true // TryEvict does NOT call Remove
	f.pinned[v[1].ID] = true
	c.Insert(v[0], 0)
	c.Insert(v[1], 0)
	// enforce must have cleaned v[0] up itself.
	if c.Bytes() != 100 || c.Len() != 1 {
		t.Fatalf("guard failed: bytes=%d len=%d", c.Bytes(), c.Len())
	}
}

// TestCacheRecyclesEntries: once warm, a copy that comes and goes costs no
// allocation.
func TestCacheRecyclesEntries(t *testing.T) {
	c, f, v := boundedCache(150)
	c.Insert(v[0], 0)
	c.Insert(v[1], 0) // evicts v[0]
	if n := testing.AllocsPerRun(100, func() {
		f.evicted = f.evicted[:0]
		c.Insert(v[0], 0)
		c.Insert(v[1], 0)
	}); n != 0 {
		t.Fatalf("%v allocs per insert/evict cycle, want 0", n)
	}
}

func TestRWQueueWriterBlocksLaterReaders(t *testing.T) {
	// FIFO admission: two active readers, then a queued writer, then a
	// queued reader — the reader arriving after the writer must not be
	// admitted before it (no writer starvation).
	v := &Variable{}
	k := sim.New()
	v.rw.readers = 2 // two reads in flight
	wDone, rDone := false, false
	k.Spawn("w", func(sp *sim.Proc) {
		p := &Proc{Proc: sp}
		v.acquireWrite(p)
		wDone = true
		v.releaseWrite(k)
	})
	k.Spawn("r", func(sp *sim.Proc) {
		p := &Proc{Proc: sp}
		sp.Wait(1) // enqueue strictly after the writer
		v.acquireRead(p)
		rDone = true
		if !wDone {
			t.Error("reader admitted before the queued writer")
		}
		v.releaseRead(k)
	})
	k.At(10, func() { v.releaseRead(k) })
	k.At(20, func() { v.releaseRead(k) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !wDone || !rDone {
		t.Fatal("queue did not drain")
	}
}
