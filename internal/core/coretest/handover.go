package coretest

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"diva/internal/core"
	"diva/internal/sim"
)

// box is a value with a finalizer. It holds a pointer and is larger than 16
// bytes, so it never comes from the tiny allocator, whose objects may
// never be finalized.
type box struct {
	v   *int
	pad [4]int
}

// CollectedAfterHandOver runs on a fresh machine of cfg a program that
// carries values through every record a drained run hands over — each
// processor reads another's variable, a quarter of them write one
// remotely, all take a lock in turn and meet at a barrier and a reduction
// — and drops the machine. Every value must then be collected
// while the shelves hold the machine's sets: a set that kept a variable,
// a written value, a future's value or a reduction operand alive fails
// the test.
func CollectedAfterHandOver(t *testing.T, cfg core.Config) {
	t.Helper()
	var freed atomic.Int32
	made := int32(0)
	newBox := func() *box {
		made++
		b := &box{}
		runtime.SetFinalizer(b, func(*box) { freed.Add(1) })
		return b
	}
	func() {
		m := core.MustNewMachine(cfg)
		n := m.P()
		vars := make([]core.VarID, n)
		for i := range vars {
			vars[i] = m.AllocAt(i, 64, newBox())
		}
		writes := make([]*box, n)
		for i := 0; i < n; i += 4 {
			writes[i] = newBox()
		}
		ops := make([]*box, n)
		for i := range ops {
			ops[i] = newBox()
		}
		err := m.Run(func(p *core.Proc) {
			p.Read(vars[(p.ID*7+3)%n])
			p.Barrier()
			if w := writes[p.ID]; w != nil {
				p.Write(vars[(p.ID+1)%n], w)
			}
			p.Lock(vars[0])
			p.Unlock(vars[0])
			p.BarrierReduce(ops[p.ID], 8, func(a, b interface{}) interface{} { return a })
		})
		if err != nil {
			t.Fatal(err)
		}
	}()
	if sim.RunStoreStats().Sets == 0 {
		t.Fatal("the drained run left nothing on the shelves")
	}
	for i := 0; i < 100 && freed.Load() < made; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := freed.Load(); got != made {
		t.Fatalf("%d of %d values collected: a shelf keeps the finished machine's values alive", got, made)
	}
}
