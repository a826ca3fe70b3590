package barneshut

import (
	"sync"
	"testing"

	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/decomp"
)

// TestStepAllocations bounds what a time step allocates once the run is
// under way: the difference between a 6-step and a 2-step run of 256
// bodies on a 4×4 at4 machine, per extra step.
func TestStepAllocations(t *testing.T) {
	const n, procs = 256, 16
	run := func(steps int) (*core.Machine, Result) {
		m := newMachine(4, 4, accesstree.Factory(), decomp.Ary4)
		res, err := Run(m, Config{N: n, Steps: steps, MeasureFrom: steps, Seed: 5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m, res
	}
	allocs := func(steps int) float64 {
		return testing.AllocsPerRun(3, func() { run(steps) })
	}
	perStep := (allocs(6) - allocs(2)) / 4

	cells := 0
	m, res := run(6)
	WalkTree(m, res.FinalRoot, func(ref Ref, depth int, c *Cell) {
		if c != nil {
			cells++
		}
	})
	// A step writes each body once and n+3·cells cell values (every body's
	// slot, and each cell's creation, parent rewrite and center of mass),
	// carved slabLen to a block from two slabs. The bounds reduction boxes
	// two values a processor. Core keeps records and waiter queues for the
	// step's fresh cell variables: half a cell each is a generous ceiling.
	ceiling := float64((2*n+3*cells)/slabLen + 2 + 2*procs + cells/2)
	t.Logf("%.1f allocations a step, ceiling %.0f (%d cells)", perStep, ceiling, cells)
	if perStep > ceiling {
		t.Fatalf("%.1f allocations a step, want at most %.0f", perStep, ceiling)
	}
}

// TestCapturedValuesNeverRewritten: a snapshot shares the Body and Cell
// pointers of the machine it captured with every fork. Runs on two forks
// and on the machine itself, at once, must leave every captured value as
// it was, and the three runs must agree.
func TestCapturedValuesNeverRewritten(t *testing.T) {
	m := newMachine(4, 4, accesstree.Factory(), decomp.Ary4)
	res, err := Run(m, Config{N: 128, Steps: 2, MeasureFrom: 2, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bodies := make(map[*Body]Body)
	for _, v := range res.BodyVars {
		b := m.Var(v).Data.(*Body)
		bodies[b] = *b
	}
	cells := make(map[*Cell]Cell)
	var walk func(id core.VarID)
	walk = func(id core.VarID) {
		c := m.Var(id).Data.(*Cell)
		cells[c] = *c
		for _, ch := range c.Child {
			if !ch.Empty() && !ch.IsBody() {
				walk(ch.VarID())
			}
		}
	}
	walk(res.FinalRoot)

	machines := []*core.Machine{m, nil, nil}
	for i := 1; i < len(machines); i++ {
		if machines[i], err = snap.Fork(core.ForkOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, x := range machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(x, Config{N: 128, Steps: 3, MeasureFrom: 3, Seed: 4}, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	for p, want := range bodies {
		if *p != want {
			t.Fatalf("captured body rewritten: %+v, was %+v", *p, want)
		}
	}
	for p, want := range cells {
		if *p != want {
			t.Fatalf("captured cell rewritten: %+v, was %+v", *p, want)
		}
	}
	if len(cells) < 2 {
		t.Fatalf("captured %d cells: the warm-up built no tree", len(cells))
	}
	for i, x := range machines[1:] {
		if a, b := x.K.Fingerprint(), m.K.Fingerprint(); a != b {
			t.Errorf("fork %d fingerprint %#x, source machine %#x", i, a, b)
		}
	}
}
