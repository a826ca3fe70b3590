package core_test

import (
	"fmt"
	"testing"

	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/core/fixedhome"
	"diva/internal/decomp"
	"diva/internal/mesh"
)

// strategies under test, by name.
func testStrategies() map[string]core.Factory {
	return map[string]core.Factory{
		"fixedhome":  fixedhome.Factory(),
		"accesstree": accesstree.Factory(),
	}
}

func newTestMachine(t *testing.T, rows, cols int, f core.Factory, spec decomp.Spec) *core.Machine {
	t.Helper()
	return core.MustNewMachine(core.Config{
		Rows: rows, Cols: cols,
		Seed:     12345,
		Tree:     spec,
		Strategy: f,
	})
}

func TestReadAfterAllocLocal(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, 4, 4, f, decomp.Ary2)
			v := m.AllocAt(3, 64, "initial")
			err := m.Run(func(p *core.Proc) {
				if p.ID != 3 {
					return
				}
				if got := p.Read(v); got != "initial" {
					t.Errorf("creator read %v", got)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			// Creator's read must be a local hit: zero link traffic.
			if c := m.Net.Congestion(nil); c.TotalMsgs != 0 {
				t.Errorf("creator-local read produced %d link messages", c.TotalMsgs)
			}
		})
	}
}

func TestRemoteReadReturnsValue(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, 4, 4, f, decomp.Ary2)
			v := m.AllocAt(0, 128, 777)
			got := make([]interface{}, m.P())
			err := m.Run(func(p *core.Proc) {
				got[p.ID] = p.Read(v)
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range got {
				if g != 777 {
					t.Fatalf("proc %d read %v, want 777", i, g)
				}
			}
		})
	}
}

func TestWriteInvalidatesAndPropagates(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, 4, 4, f, decomp.Ary2)
			v := m.AllocAt(0, 64, 0)
			writer := 9
			results := make([]interface{}, m.P())
			err := m.Run(func(p *core.Proc) {
				// Everyone reads the initial value.
				if got := p.Read(v); got != 0 {
					t.Errorf("proc %d initial read %v", p.ID, got)
				}
				p.Barrier()
				if p.ID == writer {
					p.Read(v) // write preceded by read, as in the paper's apps
					p.Write(v, 42)
				}
				p.Barrier()
				results[p.ID] = p.Read(v)
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range results {
				if g != 42 {
					t.Fatalf("proc %d read %v after write, want 42", i, g)
				}
			}
		})
	}
}

// TestRepeatedWriteReadRounds stresses copy creation/invalidation cycles
// with rotating writers.
func TestRepeatedWriteReadRounds(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, 4, 4, f, decomp.Ary4)
			v := m.AllocAt(5, 32, -1)
			const rounds = 8
			err := m.Run(func(p *core.Proc) {
				for r := 0; r < rounds; r++ {
					writer := (r * 3) % m.P()
					if p.ID == writer {
						p.Read(v)
						p.Write(v, r)
					}
					p.Barrier()
					if got := p.Read(v); got != r {
						t.Errorf("round %d: proc %d read %v", r, p.ID, got)
					}
					p.Barrier()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWriteWithoutPriorRead: a write by a processor that never read the
// variable must still work (value travels to the nearest copy for the
// access tree; directory write for fixed home).
func TestWriteWithoutPriorRead(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, 4, 4, f, decomp.Ary2)
			v := m.AllocAt(0, 64, "old")
			err := m.Run(func(p *core.Proc) {
				if p.ID == 15 {
					p.Write(v, "new")
				}
				p.Barrier()
				if got := p.Read(v); got != "new" {
					t.Errorf("proc %d read %v, want new", p.ID, got)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLocalHitsProduceNoTraffic: after everyone cached the value, repeated
// reads must not generate any messages (the 99% cache hit ratio phenomenon
// in the Barnes-Hut force phase relies on this).
func TestLocalHitsProduceNoTraffic(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, 4, 4, f, decomp.Ary2)
			v := m.AllocAt(0, 64, 5)
			var snap []mesh.LinkLoad
			err := m.Run(func(p *core.Proc) {
				p.Read(v)
				p.Barrier()
				// Let all barrier release messages drain, then snapshot.
				p.Wait(50000)
				if p.ID == 0 {
					snap = m.Net.AppendLoads(nil)
				}
				p.Wait(1000) // everyone starts reading after the snapshot
				for i := 0; i < 10; i++ {
					if got := p.Read(v); got != 5 {
						t.Errorf("hit read %v", got)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if c := m.Net.Congestion(snap); c.TotalMsgs != 0 {
				t.Fatalf("local hits produced %d link messages", c.TotalMsgs)
			}
		})
	}
}

func TestAllStrategiesDistinctVars(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, 4, 4, f, decomp.Ary2)
			ids := make([]core.VarID, m.P())
			for i := 0; i < m.P(); i++ {
				ids[i] = m.AllocAt(i, 16, i*10)
			}
			err := m.Run(func(p *core.Proc) {
				// Read your right neighbor's variable.
				r := (p.ID + 1) % m.P()
				if got := p.Read(ids[r]); got != r*10 {
					t.Errorf("proc %d read neighbor var %v, want %d", p.ID, got, r*10)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBarrierBlocksUntilAll(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, 4, 4, f, decomp.Ary2)
			arrived := 0
			err := m.Run(func(p *core.Proc) {
				// Stagger arrivals: proc i arrives at time 100*i.
				p.Wait(float64(p.ID) * 100)
				arrived++
				p.Barrier()
				if arrived != m.P() {
					t.Errorf("proc %d passed the barrier with %d/%d arrived",
						p.ID, arrived, m.P())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBarrierRepeats(t *testing.T) {
	m := newTestMachine(t, 4, 4, accesstree.Factory(), decomp.Ary2)
	count := make([]int, m.P())
	err := m.Run(func(p *core.Proc) {
		for r := 0; r < 20; r++ {
			count[p.ID]++
			p.Barrier()
			// After barrier r, everyone must have counted r+1.
			for q := 0; q < m.P(); q++ {
				if count[q] != count[p.ID] {
					t.Errorf("round %d: proc %d sees count[%d]=%d != %d",
						r, p.ID, q, count[q], count[p.ID])
					return
				}
			}
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReduceSum(t *testing.T) {
	m := newTestMachine(t, 4, 4, accesstree.Factory(), decomp.Ary4)
	want := 0
	for i := 0; i < m.P(); i++ {
		want += i
	}
	err := m.Run(func(p *core.Proc) {
		got := p.BarrierReduce(p.ID, 8, func(a, b interface{}) interface{} {
			return a.(int) + b.(int)
		})
		if got != want {
			t.Errorf("proc %d reduce = %v, want %d", p.ID, got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOnSingleNode(t *testing.T) {
	m := newTestMachine(t, 1, 1, accesstree.Factory(), decomp.Ary2)
	err := m.Run(func(p *core.Proc) {
		p.Barrier()
		got := p.BarrierReduce(7, 8, func(a, b interface{}) interface{} {
			return a.(int) + b.(int)
		})
		if got != 7 {
			t.Errorf("single-node reduce = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, 4, 4, f, decomp.Ary2)
			v := m.AllocAt(0, 16, 0)
			inside := 0
			maxInside := 0
			acquired := 0
			err := m.Run(func(p *core.Proc) {
				for r := 0; r < 5; r++ {
					p.Lock(v)
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					acquired++
					p.Wait(13) // hold the lock across simulated time
					inside--
					p.Unlock(v)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if maxInside != 1 {
				t.Fatalf("%d processes in the critical section at once", maxInside)
			}
			if acquired != 5*m.P() {
				t.Fatalf("lock acquired %d times, want %d", acquired, 5*m.P())
			}
		})
	}
}

// TestLockProtectsReadModifyWrite: the canonical increment test.
func TestLockProtectsReadModifyWrite(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, 4, 4, f, decomp.Ary4)
			v := m.AllocAt(0, 16, 0)
			const rounds = 3
			err := m.Run(func(p *core.Proc) {
				for r := 0; r < rounds; r++ {
					p.Lock(v)
					x := p.Read(v).(int)
					p.Write(v, x+1)
					p.Unlock(v)
				}
				p.Barrier()
				if got := p.Read(v).(int); got != rounds*m.P() {
					t.Errorf("counter = %d, want %d", got, rounds*m.P())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFreeVariable(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, 2, 2, f, decomp.Ary2)
			v := m.AllocAt(0, 16, 1)
			err := m.Run(func(p *core.Proc) {
				p.Read(v)
				p.Barrier()
				if p.ID == 0 {
					m.Free(v)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if recover() == nil {
					t.Error("access to freed variable did not panic")
				}
			}()
			m.Var(v)
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			run := func() (float64, uint64) {
				m := newTestMachine(t, 4, 4, f, decomp.Ary2)
				vars := make([]core.VarID, 8)
				for i := range vars {
					vars[i] = m.AllocAt(i%m.P(), 64, i)
				}
				err := m.Run(func(p *core.Proc) {
					for r := 0; r < 4; r++ {
						x := p.Read(vars[(p.ID+r)%len(vars)])
						_ = x
						if p.ID%4 == r {
							p.Write(vars[p.ID%len(vars)], p.ID*r)
						}
						p.Barrier()
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				c := m.Net.Congestion(nil)
				return m.Elapsed(), c.TotalBytes
			}
			t1, b1 := run()
			t2, b2 := run()
			if t1 != t2 || b1 != b2 {
				t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, b1, t2, b2)
			}
		})
	}
}

// TestVariableRWQueue exercises the FIFO admission through concurrent
// readers and writers on one variable.
func TestVariableRWQueue(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, 4, 4, f, decomp.Ary2)
			v := m.AllocAt(0, 256, 0)
			err := m.Run(func(p *core.Proc) {
				for r := 0; r < 3; r++ {
					if p.ID%3 == 0 {
						p.Write(v, p.ID*100+r)
					} else {
						_ = p.Read(v)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCongestionATBeatsFHOnBroadcastPattern is a miniature of the paper's
// central claim: when one variable is read by everybody, the access tree
// multicasts along the tree while the fixed home serves everyone one by
// one, so the access tree's congestion is lower.
func TestCongestionATBeatsFHOnBroadcastPattern(t *testing.T) {
	congestion := func(f core.Factory) uint64 {
		m := core.MustNewMachine(core.Config{
			Rows: 8, Cols: 8, Seed: 7, Tree: decomp.Ary4, Strategy: f,
		})
		v := m.AllocAt(0, 1024, "blob")
		if err := m.Run(func(p *core.Proc) {
			p.Read(v)
		}); err != nil {
			t.Fatal(err)
		}
		return m.Net.Congestion(nil).MaxBytes
	}
	at := congestion(accesstree.Factory())
	fh := congestion(fixedhome.Factory())
	if at >= fh {
		t.Fatalf("access tree congestion %d not below fixed home %d", at, fh)
	}
}

func TestStrategyNames(t *testing.T) {
	m := newTestMachine(t, 4, 4, accesstree.Factory(), decomp.Ary4K16)
	if got := m.Strat.Name(); got != "4-16-ary access tree" {
		t.Errorf("access tree name %q", got)
	}
	m2 := newTestMachine(t, 4, 4, fixedhome.Factory(), decomp.Ary2)
	if got := m2.Strat.Name(); got != "fixed home" {
		t.Errorf("fixed home name %q", got)
	}
}

func TestAllocValidation(t *testing.T) {
	m := newTestMachine(t, 2, 2, fixedhome.Factory(), decomp.Ary2)
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc with size 0 did not panic")
		}
	}()
	m.AllocAt(0, 0, nil)
}

func ExampleMachine() {
	m := core.MustNewMachine(core.Config{
		Rows: 2, Cols: 2, Seed: 1,
		Tree:     decomp.Ary2,
		Strategy: accesstree.Factory(),
	})
	v := m.AllocAt(0, 8, "hello")
	_ = m.Run(func(p *core.Proc) {
		if p.ID == 3 {
			fmt.Println(p.Read(v))
		}
	})
	// Output: hello
}
