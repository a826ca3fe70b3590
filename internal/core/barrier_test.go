package core_test

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/decomp"
	"diva/internal/sim"
)

// TestBarrierMessageComplexity: one barrier costs exactly two messages per
// tree edge (arrive up, release down) — the "elegant algorithm on the
// access tree" property that avoids any hotspot. (Messages between tree
// nodes that land on the same processor still count as sends here, since
// SendStats counts local deliveries too.)
func TestBarrierMessageComplexity(t *testing.T) {
	m := core.MustNewMachine(core.Config{
		Rows: 4, Cols: 4, Seed: 5, Tree: decomp.Ary2,
		Strategy: accesstree.Factory(),
	})
	if err := m.Run(func(p *core.Proc) {
		p.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	msgs, _ := m.Net.SendStats()
	// 2-ary tree over 16 processors: 31 nodes, 30 edges.
	wantPerDirection := uint64(30)
	if msgs[1] != wantPerDirection { // KindBarrierArrive
		t.Fatalf("%d arrive messages, want %d", msgs[1], wantPerDirection)
	}
	if msgs[2] != wantPerDirection { // KindBarrierRelease
		t.Fatalf("%d release messages, want %d", msgs[2], wantPerDirection)
	}
}

// TestBarrierReduceConcatOrder: the reduction combines values in leaf
// order when the combine function is order-sensitive, deterministically.
func TestBarrierReduceDeterministicOrder(t *testing.T) {
	run := func() string {
		m := core.MustNewMachine(core.Config{
			Rows: 2, Cols: 4, Seed: 9, Tree: decomp.Ary2,
			Strategy: accesstree.Factory(),
		})
		var got string
		if err := m.Run(func(p *core.Proc) {
			v := p.BarrierReduce(string(rune('a'+p.ID)), 8,
				func(a, b interface{}) interface{} { return a.(string) + b.(string) })
			if p.ID == 0 {
				got = v.(string)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := run()
	if len(first) != 8 {
		t.Fatalf("reduce lost contributions: %q", first)
	}
	for i := 0; i < 3; i++ {
		if run() != first {
			t.Fatal("reduce order not deterministic")
		}
	}
}

// TestBarrierReduceAssociativeProperty: for associative combines, the
// result equals the sequential fold regardless of tree shape.
func TestBarrierReduceAssociativeProperty(t *testing.T) {
	specs := []decomp.Spec{decomp.Ary2, decomp.Ary4, decomp.Ary16, decomp.Ary2K4}
	check := func(seedRaw uint16, specIdx uint8) bool {
		spec := specs[int(specIdx)%len(specs)]
		m := core.MustNewMachine(core.Config{
			Rows: 4, Cols: 4, Seed: uint64(seedRaw), Tree: spec,
			Strategy: accesstree.Factory(),
		})
		want := 0
		for i := 0; i < m.P(); i++ {
			want += i * i
		}
		ok := true
		if err := m.Run(func(p *core.Proc) {
			got := p.BarrierReduce(p.ID*p.ID, 8,
				func(a, b interface{}) interface{} { return a.(int) + b.(int) })
			if got != want {
				ok = false
			}
		}); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierManyRoundsManyShapes stresses epoch bookkeeping.
func TestBarrierManyRoundsManyShapes(t *testing.T) {
	for _, shape := range [][2]int{{1, 7}, {3, 5}, {8, 8}} {
		m := core.MustNewMachine(core.Config{
			Rows: shape[0], Cols: shape[1], Seed: 1, Tree: decomp.Ary4,
			Strategy: accesstree.Factory(),
		})
		rounds := 0
		if err := m.Run(func(p *core.Proc) {
			for r := 0; r < 25; r++ {
				p.Barrier()
				if p.ID == 0 {
					rounds++
				}
			}
		}); err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if rounds != 25 {
			t.Fatalf("%v: %d rounds completed", shape, rounds)
		}
	}
}

// TestBarrierDoubleEntryPanics: a process must not be inside two barriers.
func TestBarrierDoubleEntryPanics(t *testing.T) {
	// Entering a barrier twice concurrently is impossible for a single
	// process by construction (Barrier blocks); this guards the internal
	// invariant through the machine's accounting instead: every call
	// completes exactly once.
	m := core.MustNewMachine(core.Config{
		Rows: 2, Cols: 2, Seed: 2, Tree: decomp.Ary2,
		Strategy: accesstree.Factory(),
	})
	calls := make([]int, m.P())
	if err := m.Run(func(p *core.Proc) {
		for i := 0; i < 3; i++ {
			p.Barrier()
			calls[p.ID]++
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range calls {
		if c != 3 {
			t.Fatalf("proc %d completed %d barriers", i, c)
		}
	}
}

// TestSnapshotRefusesBarrierInProgress: a run whose processor 0 returns
// before a BarrierReduce the other processes enter ends in a deadlock, its
// processes killed and nothing pending, so the kernel alone would let it be
// captured; the barrier's partial arrivals and blocked waiters must not be.
func TestSnapshotRefusesBarrierInProgress(t *testing.T) {
	m := core.MustNewMachine(core.Config{
		Rows: 4, Cols: 4, Seed: 1, Tree: decomp.Ary4,
		Strategy: accesstree.Factory(),
	})
	err := m.Run(func(p *core.Proc) {
		if p.ID == 0 {
			return
		}
		p.BarrierReduce(p.ID, 8, func(a, b interface{}) interface{} { return a.(int) + b.(int) })
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("run ended with %v, want a deadlock", err)
	}
	snap, err := m.Snapshot()
	if snap != nil || err == nil || !strings.Contains(err.Error(), "partial barrier arrival") {
		t.Fatalf("Snapshot = %v, %v; want the partial-arrival refusal", snap, err)
	}
}

// TestVariableIdleReporting exercises the transaction-state accessor the
// replacement machinery relies on.
func TestVariableIdleReporting(t *testing.T) {
	m := core.MustNewMachine(core.Config{
		Rows: 2, Cols: 2, Seed: 3, Tree: decomp.Ary2,
		Strategy: accesstree.Factory(),
	})
	v := m.AllocAt(0, 16, 1)
	if !m.Var(v).Idle() {
		t.Fatal("fresh variable not idle")
	}
	if err := m.Run(func(p *core.Proc) {
		p.Read(v)
	}); err != nil {
		t.Fatal(err)
	}
	if !m.Var(v).Idle() {
		t.Fatal("variable not idle after run")
	}
}
