package fixedhome

import (
	"strings"
	"testing"

	"diva/internal/core"
	"diva/internal/decomp"
	"diva/internal/xrand"
)

func newTestMachine(rows, cols int, seed uint64) *core.Machine {
	return core.MustNewMachine(core.Config{
		Rows: rows, Cols: cols, Seed: seed, Tree: decomp.Ary2,
		Strategy: Factory(),
	})
}

// checkDirectory validates the ownership-scheme invariants for a variable:
// the holder set is non-empty; if a processor (not the home) is the owner,
// it is the unique holder of the current value... more precisely, after a
// processor-write the writer is the sole holder; after reads the owner is
// the home and holders include the home and all readers.
func checkDirectory(t *testing.T, v *core.Variable) *varState {
	t.Helper()
	vs := vstate(v)
	if len(holders(v)) == 0 {
		t.Fatal("no copy of the variable exists")
	}
	if !v.LocalBit(vs.owner) {
		t.Fatalf("owner %d does not hold a copy", vs.owner)
	}
	return vs
}

// holders lists the directory of v: the processors holding a copy.
func holders(v *core.Variable) []int {
	var hs []int
	for h := v.NextLocal(0); h >= 0; h = v.NextLocal(h + 1) {
		hs = append(hs, h)
	}
	return hs
}

func TestOwnershipMovesToHomeOnRead(t *testing.T) {
	m := newTestMachine(4, 4, 1)
	v := m.AllocAt(3, 64, "val")
	if err := m.Run(func(p *core.Proc) {
		if p.ID == 10 {
			if got := p.Read(v); got != "val" {
				t.Errorf("read %v", got)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	vs := checkDirectory(t, m.Var(v))
	// "A read access issued by another processor moves the ownership back
	// to the main memory" — unless the reader happens to be the creator.
	if vs.owner != vs.home {
		t.Fatalf("owner %d after remote read, want home %d", vs.owner, vs.home)
	}
	for _, h := range []int{3, 10, vs.home} {
		if !m.Var(v).LocalBit(h) {
			t.Fatalf("holder %d missing after read (holders %v)", h, holders(m.Var(v)))
		}
	}
}

func TestWriteMakesWriterSoleOwner(t *testing.T) {
	m := newTestMachine(4, 4, 2)
	v := m.AllocAt(0, 64, 0)
	if err := m.Run(func(p *core.Proc) {
		_ = p.Read(v)
		p.Barrier()
		if p.ID == 7 {
			p.Write(v, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	vs := checkDirectory(t, m.Var(v))
	if vs.owner != 7 {
		t.Fatalf("owner %d after write, want 7", vs.owner)
	}
	if n := len(holders(m.Var(v))); n != 1 {
		t.Fatalf("%d holders after write, want 1 (invalidation incomplete)", n)
	}
	if m.Var(v).Data != 1 {
		t.Fatalf("value %v, want 1", m.Var(v).Data)
	}
}

func TestOwnerWriteIsLocal(t *testing.T) {
	m := newTestMachine(4, 4, 3)
	v := m.AllocAt(6, 64, 0)
	if err := m.Run(func(p *core.Proc) {
		if p.ID != 6 {
			return
		}
		// The creator is the owner: its writes must be free.
		for i := 0; i < 5; i++ {
			p.Write(v, i)
		}
	}); err != nil {
		t.Fatal(err)
	}
	vs := checkDirectory(t, m.Var(v))
	if vs.owner != 6 {
		t.Fatalf("owner %d, want 6", vs.owner)
	}
	if c := m.Net.Congestion(nil); c.TotalMsgs != 0 {
		t.Fatalf("owner writes produced %d messages", c.TotalMsgs)
	}
}

// TestHomeIsUniformRandom: homes of many variables should cover the mesh.
func TestHomeSpread(t *testing.T) {
	m := newTestMachine(4, 4, 4)
	seen := make(map[int]bool)
	for i := 0; i < 256; i++ {
		v := m.AllocAt(0, 8, nil)
		seen[vstate(m.Var(v)).home] = true
	}
	if len(seen) < 14 { // 16 nodes; allow a little slack
		t.Fatalf("homes cover only %d of 16 processors", len(seen))
	}
}

// checkQuiescent asserts that nothing of a finished transaction survives
// it: no write in flight or ack owed, no lock held, queued or waited for,
// and no directory bit beyond the last processor.
func checkQuiescent(t *testing.T, m *core.Machine, v *core.Variable) {
	t.Helper()
	vs := vstate(v)
	if vs.write != nil || vs.acks != 0 {
		t.Fatalf("write state survived: write=%v acks=%d", vs.write, vs.acks)
	}
	if ls := &vs.lock; ls.held || ls.owner != -1 || ls.holder != -1 || ls.queue.Len() != 0 {
		t.Fatalf("lock not at rest: %+v", *ls)
	}
	for p, w := range m.Strat.(*strategy).lockWait {
		if w != (lockWaiter{}) {
			t.Fatalf("processor %d still has a lock wait", p)
		}
	}
	if h := v.NextLocal(m.P()); h >= 0 {
		t.Fatalf("directory lists processor %d of %d", h, m.P())
	}
}

// TestRandomTrafficDirectoryInvariants drives random concurrent reads,
// writes and lock acquisitions and checks the directory and the quiescence
// invariants — also on a 32x32 machine, whose upper 512 processors lie
// beyond the first words of the directory bitmap.
func TestRandomTrafficDirectoryInvariants(t *testing.T) {
	for _, shape := range [][2]int{{4, 4}, {32, 32}} {
		m := newTestMachine(shape[0], shape[1], 5)
		const nvars = 8
		vars := make([]core.VarID, nvars)
		for i := range vars {
			vars[i] = m.AllocAt(i%m.P(), 32, -1)
		}
		if err := m.Run(func(p *core.Proc) {
			r := xrand.New(uint64(p.ID)*13 + 1)
			for step := 0; step < 15; step++ {
				vi := r.Intn(nvars)
				switch r.Intn(4) {
				case 0:
					p.Write(vars[vi], p.ID*100+step)
				case 1:
					p.Lock(vars[vi])
					p.Unlock(vars[vi])
				default:
					_ = p.Read(vars[vi])
				}
				if step%5 == 4 {
					p.Barrier()
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		high := false
		for _, id := range vars {
			checkDirectory(t, m.Var(id))
			checkQuiescent(t, m, m.Var(id))
			high = high || m.Var(id).NextLocal(512) >= 0
		}
		if m.P() > 512 && !high {
			t.Fatal("no processor beyond 512 is in a directory")
		}
	}
}

// TestReadFetchesFromOwner: a remote read after a remote write must fetch
// the fresh value from the owner through the home.
func TestReadFetchesFromOwner(t *testing.T) {
	m := newTestMachine(4, 4, 6)
	v := m.AllocAt(0, 64, "stale")
	if err := m.Run(func(p *core.Proc) {
		if p.ID == 1 {
			p.Write(v, "fresh")
		}
		p.Barrier()
		if p.ID == 14 {
			if got := p.Read(v); got != "fresh" {
				t.Errorf("read %v, want fresh", got)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	vs := checkDirectory(t, m.Var(v))
	if vs.owner != vs.home {
		t.Fatalf("ownership did not return to the home on read")
	}
}

func TestLockQueueFIFO(t *testing.T) {
	m := newTestMachine(4, 4, 7)
	v := m.AllocAt(0, 16, nil)
	var order []int
	if err := m.Run(func(p *core.Proc) {
		// Processes request in staggered time order; the home queue must
		// grant in request order.
		p.Wait(float64(p.ID) * 5000)
		p.Lock(v)
		order = append(order, p.ID)
		p.Wait(20000) // force contention: later requesters queue up
		p.Unlock(v)
	}); err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("lock grant order %v not FIFO", order)
		}
	}
}

func TestEvictionNotifiesDirectory(t *testing.T) {
	m := core.MustNewMachine(core.Config{
		Rows: 2, Cols: 2, Seed: 8, Tree: decomp.Ary2,
		Strategy:      Factory(),
		CacheCapacity: 200, // room for ~3 copies of 64 bytes
	})
	vars := make([]core.VarID, 8)
	for i := range vars {
		vars[i] = m.AllocAt(0, 64, i)
	}
	if err := m.Run(func(p *core.Proc) {
		if p.ID != 3 {
			return
		}
		for _, v := range vars {
			_ = p.Read(v)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if ev := m.Cache(3).Evictions(); ev == 0 {
		t.Fatal("bounded cache performed no replacements")
	}
	if b := m.Cache(3).Bytes(); b > 200 {
		t.Fatalf("cache holds %d bytes over the 200-byte capacity", b)
	}
	// All variables must still be readable with correct values.
	held := 0
	for i, id := range vars {
		v := m.Var(id)
		checkDirectory(t, v)
		if v.Data != i {
			t.Fatalf("var %d value %v", i, v.Data)
		}
		if v.LocalBit(3) {
			held++
		}
	}
	if held == len(vars) {
		t.Fatal("directory still lists evicted copies")
	}
}

// TestSnapshotRefusesLiveTransactions: a strategy snapshot taken while a
// write's invalidations or a lock are live reports an error naming it — it
// neither panics nor captures the half-finished state.
func TestSnapshotRefusesLiveTransactions(t *testing.T) {
	m := newTestMachine(4, 4, 9)
	v := m.AllocAt(0, 64, 0)
	vars := []*core.Variable{m.Var(v)}
	// poll snapshots every 50us of simulated time and returns the first
	// refusal.
	poll := func(p *core.Proc) error {
		for i := 0; i < 100; i++ {
			p.Wait(50)
			if _, err := m.Strat.(core.Forker).SnapshotState(vars); err != nil {
				return err
			}
		}
		return nil
	}
	var duringWrite, duringLock error
	if err := m.Run(func(p *core.Proc) {
		_ = p.Read(v) // everyone holds a copy
		p.Barrier()
		switch p.ID {
		case 5:
			p.Write(v, 1) // the home invalidates all of them
		case 0:
			duringWrite = poll(p)
		}
		p.Barrier()
		switch p.ID {
		case 5:
			p.Lock(v)
			p.Wait(1000)
			p.Unlock(v)
		case 0:
			duringLock = poll(p)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if duringWrite == nil || !strings.Contains(duringWrite.Error(), "write in flight") {
		t.Fatalf("snapshot during an invalidation wave: %v", duringWrite)
	}
	if duringLock == nil || !strings.Contains(duringLock.Error(), "lock") {
		t.Fatalf("snapshot during a held lock: %v", duringLock)
	}
	if _, err := m.Strat.(core.Forker).SnapshotState(vars); err != nil {
		t.Fatalf("snapshot at quiescence: %v", err)
	}
}
