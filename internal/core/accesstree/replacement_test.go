package accesstree

import (
	"testing"

	"diva/internal/core"
	"diva/internal/decomp"
	"diva/internal/mesh"
	"diva/internal/xrand"
)

// TestBoundedCacheEvicts: with a capacity that cannot hold every copy, LRU
// replacement must kick in, the component invariants must survive, and all
// values must remain readable.
func TestBoundedCacheEvicts(t *testing.T) {
	m := core.MustNewMachine(core.Config{
		Rows: 4, Cols: 4, Seed: 42, Tree: decomp.Ary2,
		Strategy:      Factory(),
		CacheCapacity: 300, // under five 64-byte copies per node
	})
	const nvars = 24
	vars := make([]core.VarID, nvars)
	for i := range vars {
		vars[i] = m.AllocAt(i%m.P(), 64, i)
	}
	results := make(map[int]interface{})
	if err := m.Run(func(p *core.Proc) {
		if p.ID != 9 {
			return
		}
		// One processor reads everything; its cache cannot hold it all.
		for i, v := range vars {
			got := p.Read(v)
			results[i] = got
		}
		// Read them all again (some will be misses again after eviction).
		for i, v := range vars {
			if got := p.Read(v); got != results[i] {
				t.Errorf("second read of var %d = %v, want %v", i, got, results[i])
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	evictions := uint64(0)
	for n := 0; n < m.P(); n++ {
		evictions += m.Cache(n).Evictions()
	}
	if evictions == 0 {
		t.Fatal("no replacements despite bounded capacity")
	}
	for i, id := range vars {
		v := m.Var(id)
		if v.Data != i {
			t.Fatalf("var %d corrupted: %v", i, v.Data)
		}
		checkInvariants(t, m, v, i)
	}
}

// TestSoleCopyNeverEvicted: eviction must refuse to drop the last copy.
func TestSoleCopyNeverEvicted(t *testing.T) {
	m := core.MustNewMachine(core.Config{
		Rows: 2, Cols: 2, Seed: 1, Tree: decomp.Ary2,
		Strategy:      Factory(),
		CacheCapacity: 100, // a single 64-byte copy fits, two do not
	})
	v1 := m.AllocAt(0, 64, "one")
	v2 := m.AllocAt(0, 64, "two")
	if err := m.Run(func(p *core.Proc) {}); err != nil {
		t.Fatal(err)
	}
	// Both variables' sole copies live at node 0, over capacity — but a
	// sole copy is not evictable, so both must survive.
	for _, id := range []core.VarID{v1, v2} {
		s := m.Strat.(*strategy)
		set := members(s, m.Var(id))
		if len(set) == 0 {
			t.Fatalf("sole copy of %d was evicted", id)
		}
	}
}

// TestLateEvictNoteFindsFreedVariableDead: an eviction note carries its
// *Variable, and the variable may be freed while the note is in flight. The
// record must stay dead — never be handed to the next Alloc — or the late
// note would clear a component edge of an unrelated variable (missed
// invalidations, stale reads).
func TestLateEvictNoteFindsFreedVariableDead(t *testing.T) {
	m := core.MustNewMachine(core.Config{
		Rows: 4, Cols: 4, Seed: 3, Tree: decomp.Ary2,
		Strategy:      Factory(),
		CacheCapacity: 1 << 20, // bounded, so copies are tracked and evictable
	})
	s := m.Strat.(*strategy)
	v1 := m.AllocAt(0, 64, 1)
	if err := m.Run(func(p *core.Proc) {
		if p.ID != 9 {
			return
		}
		_ = p.Read(v1)
		old := m.Var(v1)
		leaf := s.t.LeafOfProc[9]
		parent := s.t.Nodes[leaf].Parent
		if !s.TryEvict(old, leaf, 9) {
			t.Fatal("copy at the reader's leaf is not evictable")
		}
		// The note to the parent's host is in flight now.
		m.Free(v1)
		fresh := m.Var(m.AllocAt(9, 64, 2))
		if fresh == old {
			t.Error("Alloc handed out the record of a freed variable")
		}
		// Give the new variable the very edge the stale note names.
		vs := vstate(fresh)
		s.node(vs, parent).edges |= s.edgeBit(parent, leaf)
		want := make([]nodeState, len(s.t.Nodes))
		for i := range want {
			want[i] = vs.nodes.get(i)
		}
		p.Wait(1e6)
		for i := range want {
			if vs.nodes.get(i) != want[i] {
				t.Errorf("node %d of the new variable changed: %+v, was %+v", i, vs.nodes.get(i), want[i])
			}
		}
		if old.State != nil {
			t.Error("freed variable came back to life")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUnboundedCacheNeverEvicts matches the paper's default configuration.
func TestUnboundedCacheNeverEvicts(t *testing.T) {
	m := newTestMachine(decomp.Ary2, 4, 4, 9)
	vars := make([]core.VarID, 64)
	for i := range vars {
		vars[i] = m.AllocAt(0, 4096, i)
	}
	if err := m.Run(func(p *core.Proc) {
		for _, v := range vars {
			_ = p.Read(v)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < m.P(); n++ {
		if m.Cache(n).Evictions() != 0 {
			t.Fatal("unbounded cache evicted")
		}
	}
}

// --- Lock / arrow protocol white-box tests ---

func TestLockTokenStartsAtCreator(t *testing.T) {
	m := newTestMachine(decomp.Ary2, 4, 4, 10)
	v := m.AllocAt(6, 16, nil)
	if err := m.Run(func(p *core.Proc) {
		if p.ID == 6 {
			// The creator acquires its own lock without any messages.
			p.Lock(v)
			p.Unlock(v)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if c := m.Net.Congestion(nil); c.TotalMsgs != 0 {
		t.Fatalf("creator lock acquisition produced %d messages", c.TotalMsgs)
	}
}

func TestLockTokenMovesToLastHolder(t *testing.T) {
	m := newTestMachine(decomp.Ary2, 4, 4, 11)
	v := m.AllocAt(0, 16, nil)
	if err := m.Run(func(p *core.Proc) {
		if p.ID == 13 {
			p.Lock(v)
			p.Unlock(v)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s := m.Strat.(*strategy)
	ls := &vstate(m.Var(v)).lock
	if ls.tokenAt != s.t.LeafOfProc[13] || !ls.tokenFree {
		t.Fatalf("token at node %d free=%v, want at proc 13's leaf, free", ls.tokenAt, ls.tokenFree)
	}
	// A re-acquisition by 13 is now free.
	if ls.succ != -1 || s.lockers[13] != (locker{next: -1}) {
		t.Fatal("lock queue not empty after release")
	}
}

// TestArrowPathReversal: after a lock migrates, the arrows route the next
// request to the new token position, not the creator.
func TestArrowPathReversal(t *testing.T) {
	m := newTestMachine(decomp.Ary2, 4, 4, 12)
	v := m.AllocAt(0, 16, nil)
	var phase2 interface{}
	if err := m.Run(func(p *core.Proc) {
		if p.ID == 15 {
			p.Lock(v)
			p.Unlock(v)
		}
		p.Barrier()
		if p.ID == 15 {
			// Second acquisition by the same processor: token is local.
			phase2 = m.Net.Loads()
			p.Lock(v)
			p.Unlock(v)
		}
	}); err != nil {
		t.Fatal(err)
	}
	c := m.Net.Congestion(phase2.([]mesh.LinkLoad))
	if c.TotalMsgs != 0 {
		t.Fatalf("re-acquisition after migration cost %d messages", c.TotalMsgs)
	}
}

// TestLockContentionAllServed: heavy random contention; everyone who asks
// eventually holds the lock exactly the right number of times.
func TestLockContentionAllServed(t *testing.T) {
	for _, spec := range []decomp.Spec{decomp.Ary2, decomp.Ary4, decomp.Ary4K16} {
		t.Run(spec.Name(), func(t *testing.T) {
			m := newTestMachine(spec, 4, 4, 13)
			v := m.AllocAt(5, 16, nil)
			const rounds = 6
			inside, maxInside, total := 0, 0, 0
			if err := m.Run(func(p *core.Proc) {
				r := xrand.New(uint64(p.ID) + 99)
				for i := 0; i < rounds; i++ {
					p.Wait(float64(r.Intn(500)))
					p.Lock(v)
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					total++
					p.Wait(float64(r.Intn(50)))
					inside--
					p.Unlock(v)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if maxInside != 1 {
				t.Fatalf("mutual exclusion violated: %d inside", maxInside)
			}
			if total != rounds*m.P() {
				t.Fatalf("%d acquisitions, want %d", total, rounds*m.P())
			}
		})
	}
}

// TestManyLocksIndependent: locks on different variables do not interfere.
func TestManyLocksIndependent(t *testing.T) {
	m := newTestMachine(decomp.Ary4, 4, 4, 14)
	vars := make([]core.VarID, m.P())
	for i := range vars {
		vars[i] = m.AllocAt(i, 16, nil)
	}
	if err := m.Run(func(p *core.Proc) {
		// Everyone locks its own variable: fully parallel, no contention.
		for i := 0; i < 3; i++ {
			p.Lock(vars[p.ID])
			p.Wait(10)
			p.Unlock(vars[p.ID])
		}
	}); err != nil {
		t.Fatal(err)
	}
	if c := m.Net.Congestion(nil); c.TotalMsgs != 0 {
		t.Fatalf("uncontended local locks produced %d messages", c.TotalMsgs)
	}
}

// TestReadDuringLockHold: data transactions and lock traffic on the same
// variable coexist.
func TestReadDuringLockHold(t *testing.T) {
	m := newTestMachine(decomp.Ary2, 4, 4, 15)
	v := m.AllocAt(0, 64, 0)
	if err := m.Run(func(p *core.Proc) {
		if p.ID%2 == 0 {
			p.Lock(v)
			x := p.Read(v).(int)
			p.Write(v, x+1)
			p.Unlock(v)
		} else {
			_ = p.Read(v)
		}
		p.Barrier()
		if got := p.Read(v).(int); got != m.P()/2 {
			t.Errorf("counter %d, want %d", got, m.P()/2)
		}
	}); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, m, m.Var(v), m.P()/2)
}
