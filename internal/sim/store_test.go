package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// emptyStock drops every set waiting in the process-wide stock, so a test
// starts from kernels that find nothing to adopt.
func emptyStock() {
	stock.mu.Lock()
	for i := range stock.sets {
		stock.sets[i] = evStore{}
	}
	stock.n = 0
	stock.mu.Unlock()
}

func stockSetCount() int { return StoreStats().Sets }

// storeWorkload loads k with a run that touches every holder of storage:
// processes on timed waits (events carrying *Proc), closures, typed
// callbacks with pointer arguments, timers, same-timestamp
// bursts, and enough spread to build rungs and a tail. shape varies the population and the time scale.
func storeWorkload(k *Kernel, shape int) {
	n := 40 + 25*shape
	base := k.Now() // a warm kernel's second workload starts where the first ended
	for i := 0; i < 3+shape; i++ {
		i := i
		k.Spawn(fmt.Sprint("p", i), func(p *Proc) {
			for j := 0; j < n; j++ {
				p.Wait(Time(1 + (i*7+j*13)%29))
				if j%5 == 0 {
					yield(p)
				}
			}
		})
	}
	type box struct{ left int }
	var tick func(interface{})
	tick = func(x interface{}) {
		b := x.(*box)
		if b.left--; b.left > 0 {
			k.AtCall(k.Now()+Time(3+b.left%11)*Time(shape+1), tick, b)
			k.TimerAt(k.Now()+Time(b.left%7), func(interface{}) {}, b)
		}
	}
	for i := 0; i < 10*n; i++ {
		k.AtCall(base+Time(i*37%(500*(shape+1))), tick, &box{left: 4 + i%5})
	}
	for i := 0; i < n; i++ {
		k.At(base+Time(10_000+i*1000), func() { k.At(k.Now(), func() {}) })
	}
}

func mustRun(t *testing.T, k *Kernel) {
	t.Helper()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreKeptWhilePending pins the hand-over condition from the other
// side: a canceled or deadlocked run, which ends with events still queued,
// keeps its store, and the stock receives nothing.
func TestStoreKeptWhilePending(t *testing.T) {
	t.Run("cancel", func(t *testing.T) {
		emptyStock()
		k := New()
		var flag atomic.Bool
		k.SetCancel(&flag)
		var again func()
		again = func() {
			if k.Stat.Events == 10 {
				flag.Store(true)
			}
			k.At(k.Now()+1, again)
		}
		k.At(0, again)
		if err := k.Run(); !errors.Is(err, ErrCanceled) {
			t.Fatalf("Run = %v, want a canceled run", err)
		}
		if stockSetCount() != 0 || !k.st.own {
			t.Fatal("canceled kernel handed its store over")
		}
	})
	t.Run("deadlock", func(t *testing.T) {
		emptyStock()
		k := New()
		k.Spawn("stuck", func(p *Proc) {
			p.Wait(5)
			new(Future).Await(p)
		})
		var dl *DeadlockError
		if err := k.Run(); !errors.As(err, &dl) {
			t.Fatalf("Run = %v, want a deadlock", err)
		}
		if stockSetCount() != 0 {
			t.Fatal("deadlocked kernel handed its store over")
		}
	})
}

// TestStoreRerunAdoptsLazily runs two workloads back to back on one kernel
// — a warm machine taking a second workload. The first Run hands the store
// over; nothing is taken back until the second workload schedules; and the
// whole trajectory equals that of a kernel that never saw recycled storage.
func TestStoreRerunAdoptsLazily(t *testing.T) {
	// Reference: every phase starts on an empty stock.
	emptyStock()
	ref := New()
	storeWorkload(ref, 1)
	mustRun(t, ref)
	emptyStock()
	storeWorkload(ref, 0)
	mustRun(t, ref)

	// Recycled: the stock holds a differently shaped run's set throughout.
	emptyStock()
	shaper := New()
	storeWorkload(shaper, 3)
	mustRun(t, shaper)
	if stockSetCount() != 1 {
		t.Fatalf("finished kernel left %d sets in the stock, want 1", stockSetCount())
	}
	k := New()
	adoptions := StoreStats().Adoptions
	storeWorkload(k, 1)
	if got := StoreStats().Adoptions; got != adoptions+1 {
		t.Fatalf("first workload: %d adoptions, want 1", got-adoptions)
	}
	mustRun(t, k)
	if k.st.own || stockSetCount() != 1 {
		t.Fatalf("after Run: store kept (own=%v), stock holds %d sets", k.st.own, stockSetCount())
	}
	if got := StoreStats().Adoptions; got != adoptions+1 {
		t.Fatal("storage adopted before the second workload scheduled anything")
	}
	storeWorkload(k, 0)
	if got := StoreStats().Adoptions; got != adoptions+2 || stockSetCount() != 0 {
		t.Fatalf("second workload: %d adoptions in all, stock holds %d sets", got-adoptions, stockSetCount())
	}
	mustRun(t, k)
	if k.Fingerprint() != ref.Fingerprint() || k.Now() != ref.Now() || k.Stat != ref.Stat {
		t.Fatalf("recycled run diverged: fingerprint %#x at t=%v, un-recycled %#x at t=%v",
			k.Fingerprint(), k.Now(), ref.Fingerprint(), ref.Now())
	}
}

// TestReleasedStoreIsCleared inspects a set in the stock: no slab event
// may carry a *Proc, no payload slot a callback or argument, and no rung a
// bucket — a finished machine must be collectable while its slabs live on.
func TestReleasedStoreIsCleared(t *testing.T) {
	emptyStock()
	k := New()
	storeWorkload(k, 2)
	mustRun(t, k)
	// A second, smaller run on the adopted set: it dirties only part of
	// it, and the low-water marks must still get everything it touched.
	k2 := New()
	storeWorkload(k2, 0)
	mustRun(t, k2)

	stock.mu.Lock()
	defer stock.mu.Unlock()
	if stock.n != 1 {
		t.Fatalf("stock holds %d sets, want 1", stock.n)
	}
	s := &stock.sets[0]
	slabs := 0
	for c, l := range s.free {
		if int(s.clean[c]) != len(l) {
			t.Errorf("class %d: %d of %d slabs marked clean", c, s.clean[c], len(l))
		}
		for _, b := range l {
			slabs++
			if len(b) != 0 || cap(b) != 1<<(c+slabMinShift) {
				t.Fatalf("class %d holds a slab of len %d cap %d", c, len(b), cap(b))
			}
			for i, e := range b[:cap(b)] {
				if e != (event{}) {
					t.Fatalf("class %d slab keeps event %+v at %d", c, e, i)
				}
			}
		}
	}
	if slabs == 0 || cap(s.pay) == 0 || len(s.spare) == 0 {
		t.Fatalf("set is empty (%d slabs, %d payload slots, %d rungs): the workload did not exercise it",
			slabs, cap(s.pay), len(s.spare))
	}
	if len(s.pay) != 0 || len(s.payFree) != 0 {
		t.Errorf("payload table released with %d slots in use, %d free", len(s.pay), len(s.payFree))
	}
	for i, p := range s.pay[:cap(s.pay)] {
		if p.hfn != nil || p.arg != nil || p.fn != nil {
			t.Fatalf("payload slot %d keeps a reference", i)
		}
	}
	for _, r := range s.spare {
		for b := range r.bkts {
			if r.bkts[b] != nil {
				t.Fatal("retired rung keeps a bucket slab")
			}
		}
	}
	if s.sortBuf != nil || s.own {
		t.Error("set keeps its sort scratch outside the free lists, or is marked owned")
	}
	if got := s.bytes(); got > stockSetBytes {
		t.Errorf("set holds %d bytes, ceiling %d", got, stockSetBytes)
	}
}

// TestStoreTrimDropsLargestFirst: a set over the ceiling loses its largest
// slabs and keeps the small ones.
func TestStoreTrimDropsLargestFirst(t *testing.T) {
	s := &evStore{own: true}
	big := s.get(stockSetBytes / eventBytes) // one slab of the whole ceiling
	small := s.get(8)
	s.put(big)
	s.put(small)
	s.trim()
	if got := s.bytes(); got > stockSetBytes || got == 0 {
		t.Fatalf("trimmed set holds %d bytes, ceiling %d", got, stockSetBytes)
	}
	if len(s.free[0]) != 1 {
		t.Fatal("trim dropped the smallest slab")
	}
}

// The hold-model workloads of holdKernel.
const (
	holdCalls  = iota // every event an AtCall
	holdTimers        // every event a timer
	holdCancel        // AtCalls, each arming a timer and canceling it at once
)

// holdKernel builds a kernel with `size` standing events, each
// rescheduling itself a pseudo-random increment ahead (the hold model) as
// mode says, and returns a function that executes n of them. Under
// holdCancel about as many dead entries as live ones stand in the queue.
func holdKernel(size, mode int) (run func(n int)) {
	k := New()
	left := 0
	rng := uint64(size)*2654435761 + 1
	var fn func(interface{})
	fn = func(interface{}) {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		at := k.Now() + Time(rng%uint64(2*size)) + 0.5
		switch mode {
		case holdTimers:
			k.TimerAt(at, fn, nil)
		case holdCancel:
			k.CancelTimer(k.TimerAt(at, fn, nil))
			k.AtCall(at, fn, nil)
		default:
			k.AtCall(at, fn, nil)
		}
		if left--; left == 0 {
			k.canceled = true
		}
	}
	for i := 0; i < size; i++ {
		if mode == holdTimers {
			k.TimerAt(Time(i+1), fn, nil)
		} else {
			k.AtCall(Time(i+1), fn, nil)
		}
	}
	// The loop stops at a canceled kernel; Run would report that with an
	// error value, an allocation per run.
	return func(n int) {
		left = n
		k.canceled = false
		k.loop(nil)
	}
}

// TestLadderSteadyStateZeroAlloc: once a kernel has cycled its population
// a few times, every slab the queue asks for is on a free list — push, pop,
// epoch sorts, rung spawns and tail conversions allocate nothing, timers
// included, and neither do canceled timers standing in the queue.
func TestLadderSteadyStateZeroAlloc(t *testing.T) {
	for _, size := range []int{256, 65536} {
		for mode, name := range []string{"calls", "timers", "arm-then-cancel"} {
			run := holdKernel(size, mode)
			run(12 * size)
			if allocs := testing.AllocsPerRun(4, func() { run(3 * size) }); allocs != 0 {
				t.Errorf("%d standing events, %s: %.0f allocations per %d events, want 0",
					size, name, allocs, 3*size)
			}
		}
	}
}

// TestKernelStoreConcurrent has eight goroutines build, run and drop
// kernels against the shared stock at once. Whatever set a kernel happens
// to adopt, its fingerprint must equal the solo run's. Run under -race.
func TestKernelStoreConcurrent(t *testing.T) {
	const shapes = 4
	var want [shapes]uint64
	for s := range want {
		emptyStock()
		k := New()
		storeWorkload(k, s)
		mustRun(t, k)
		want[s] = k.Fingerprint()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				s := (g + i) % shapes
				k := New()
				storeWorkload(k, s)
				if err := k.Run(); err != nil {
					t.Error(err)
					return
				}
				if k.Fingerprint() != want[s] {
					t.Errorf("goroutine %d run %d shape %d: fingerprint %#x, solo %#x", g, i, s, k.Fingerprint(), want[s])
				}
			}
		}(g)
	}
	wg.Wait()
	if st := StoreStats(); st.Sets > stockSets || st.Bytes > stockSets*stockSetBytes {
		t.Errorf("stock holds %d sets, %d bytes: over its constants", st.Sets, st.Bytes)
	}
}
