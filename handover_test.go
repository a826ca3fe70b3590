package diva_test

import (
	"fmt"
	"sync"
	"testing"

	"diva"
	"diva/internal/mesh"
	"diva/internal/sim"
	"diva/spec"
)

// runTraj is what a run leaves observable: the executed-event-order
// fingerprint, the event count, the simulated clock and the link traffic.
type runTraj struct {
	fingerprint uint64
	events      uint64
	now         float64
	cong        mesh.Congestion
}

func trajOf(m *diva.Machine) runTraj {
	return runTraj{m.K.Fingerprint(), m.K.Stat.Events, m.K.Now(), m.Net.Congestion(nil)}
}

// touch runs a program on m that exercises every record a drained run
// hands over: each process reads a variable another processor created, every
// fourth one writes its own (invalidations), groups of sixteen take turns
// on a lock, and all meet at a barrier and a reduction.
func touch(t *testing.T, m *diva.Machine) runTraj {
	t.Helper()
	n := m.P()
	type cell struct{ v int }
	vars := make([]diva.VarID, n)
	for i := range vars {
		vars[i] = m.AllocAt(i, 64, &cell{i})
	}
	err := m.Run(func(p *diva.Proc) {
		_ = p.Read(vars[(p.ID*7+3)%n])
		p.Barrier()
		if p.ID%4 == 0 {
			p.Write(vars[p.ID], &cell{-p.ID})
		}
		lock := vars[p.ID/16*16]
		p.Lock(lock)
		p.Compute(1)
		p.Unlock(lock)
		p.BarrierReduce(p.ID, 8, func(a, b interface{}) interface{} { return a.(int) + b.(int) })
	})
	if err != nil {
		t.Error(err) // not Fatal: touch also runs on other goroutines
		return runTraj{}
	}
	return trajOf(m)
}

// handOverRun builds a fresh machine of one kind and shape and runs it.
type handOverRun struct {
	name string
	run  func(t *testing.T) runTraj
}

func handOverRuns(t *testing.T, side int) []handOverRun {
	var runs []handOverRun
	for _, s := range diva.Strategies() {
		s := s.Name
		runs = append(runs, handOverRun{fmt.Sprintf("%s/%dx%d", s, side, side), func(t *testing.T) runTraj {
			m, err := diva.New(diva.WithMesh(side, side), diva.WithStrategyName(s), diva.WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			return touch(t, m)
		}})
	}
	stencil := spec.Spec{Rows: side, Cols: side, Strategy: "handopt", Seed: 7,
		Workload: spec.Workload{Name: "stencil", Iters: 2, Compute: true, Seed: 7}}
	runs = append(runs, handOverRun{fmt.Sprintf("handopt-stencil/%dx%d", side, side), func(t *testing.T) runTraj {
		m, w, err := diva.FromSpec(stencil)
		if err != nil {
			t.Fatal(err)
		}
		mustRun(t, m, w)
		return trajOf(m)
	}})
	return runs
}

// TestHandOverEquivalence: a run on storage that drained runs handed over
// — message pool, receiver records, replay journal, transaction records,
// kernel slabs — gives the trajectory of the same run on
// cold storage, for every registered strategy and the hand-optimized
// stencil, with machines of different shapes interleaved (4×4, 32×32,
// 4×4) so that each finds the other shape's sets on the shelves. Then
// eight goroutines fork one snapshot and run it at once, adopting and
// handing over concurrently. Run under -race.
func TestHandOverEquivalence(t *testing.T) {
	small, large := handOverRuns(t, 4), handOverRuns(t, 32)
	cold := map[string]runTraj{}
	for _, r := range append(append([]handOverRun(nil), small...), large...) {
		sim.DropSpares()
		cold[r.name] = r.run(t)
	}
	adoptions := sim.RunStoreStats().Adoptions
	for i := range small {
		for _, r := range []handOverRun{small[i], large[i], small[i]} {
			if got := r.run(t); got != cold[r.name] {
				t.Errorf("%s on handed-over storage: %+v, on cold storage %+v", r.name, got, cold[r.name])
			}
		}
	}
	if got := sim.RunStoreStats().Adoptions - adoptions; got < uint64(3*len(small)) {
		t.Fatalf("%d adoptions over %d runs: storage was not handed over", got, 3*len(small))
	}

	// One snapshot, eight goroutines forking and running it.
	src, err := diva.New(diva.WithMesh(8, 8), diva.WithStrategyName("at4"), diva.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	forkRun := func(t *testing.T) runTraj {
		f, err := diva.Fork(snap)
		if err != nil {
			t.Error(err)
			return runTraj{}
		}
		return touch(t, f)
	}
	sim.DropSpares()
	want := forkRun(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if got := forkRun(t); got != want {
					t.Errorf("goroutine %d fork %d: %+v, lone fork on cold storage %+v", g, i, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := sim.RunStoreStats(); st.Bytes > st.Ceiling {
		t.Errorf("shelves hold %d bytes, ceiling %d", st.Bytes, st.Ceiling)
	}
}
