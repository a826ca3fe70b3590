package sim

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// mallocs returns the number of heap objects f allocates.
func mallocs(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// wantWorkers checks the stock against idle and that no goroutine exists
// beyond base and the idle workers: killed and dropped workers are gone the
// moment the call that ended them returns. (Only an upper bound: the runner
// of the previous test may still have been exiting when base was read.)
func wantWorkers(t *testing.T, what string, base, idle int) {
	t.Helper()
	if got := ProcStats().Idle; got != idle {
		t.Errorf("%s: %d idle workers, want %d", what, got, idle)
	}
	if got := runtime.NumGoroutine(); got > base+idle {
		t.Errorf("%s: %d goroutines, want %d + %d idle workers", what, got, base, idle)
	}
}

// TestUnrunKernelHoldsNoGoroutine: a process is a record and a kick-off
// event until its first wake-up, so a machine dropped between SpawnAll and
// Run leaks nothing.
func TestUnrunKernelHoldsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	k := switchKernel(1024, 1)
	for i := 0; i < 8; i++ {
		k.Spawn("named", func(p *Proc) { p.Wait(1) })
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after spawning on an un-run kernel, %d before", got, base)
	}
	k.Shutdown()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after running a shut-down kernel, %d before", got, base)
	}
}

// TestProcNames: names are formatted from the index when asked.
func TestProcNames(t *testing.T) {
	k := New()
	var rec Proc
	k.SpawnAt(&rec, 37, func(p *Proc) { new(Future).Await(p) })
	lit := k.Spawn("lit", func(p *Proc) {})
	if rec.Name() != "p37" || rec.String() != "proc(p37)" || lit.Name() != "lit" {
		t.Fatalf("names %q %q %q", rec.Name(), rec.String(), lit.Name())
	}
	var de *DeadlockError
	if err := k.Run(); !errors.As(err, &de) || len(de.Blocked) != 1 || de.Blocked[0] != "p37" {
		t.Fatalf("Run = %v, want p37 blocked", err)
	}
}

// TestProcSwitchZeroAlloc: with the workers there, a run allocates a few
// objects however many switches it makes, and counts every one of them.
func TestProcSwitchZeroAlloc(t *testing.T) {
	for _, procs := range []int{2, 1024} {
		mustRun(t, switchKernel(procs, 1)) // workers into the stock
		const rounds = 200
		k := switchKernel(procs, rounds)
		before := ProcStats().Switches
		n := mallocs(func() { mustRun(t, k) })
		switches := ProcStats().Switches - before
		if want := uint64(procs * (rounds + 1)); switches != want {
			t.Errorf("%d processes: %d switches counted, want %d", procs, switches, want)
		}
		if n > 32 {
			t.Errorf("%d processes: %d allocations in a run of %d switches, want none per switch", procs, n, switches)
		}
	}
	DropIdleWorkers()
}

// TestWorkerPoolReuse: the second run of a shape finds every worker in the
// stock and allocates no more than its Proc records.
func TestWorkerPoolReuse(t *testing.T) {
	DropIdleWorkers()
	base := runtime.NumGoroutine()
	const procs = 64
	shape := func() *Kernel {
		k := New()
		for i := 0; i < procs; i++ {
			k.Spawn("w", func(p *Proc) { p.Wait(Time(1 + p.Index()%3)) })
		}
		return k
	}
	s0 := ProcStats()
	mustRun(t, shape())
	s1 := ProcStats()
	if s1.Misses-s0.Misses != procs || s1.Hits != s0.Hits {
		t.Fatalf("first run: %d workers created, %d taken, want %d and 0", s1.Misses-s0.Misses, s1.Hits-s0.Hits, procs)
	}
	wantWorkers(t, "first run", base, procs)
	n := mallocs(func() { mustRun(t, shape()) })
	s2 := ProcStats()
	if s2.Misses != s1.Misses || s2.Hits-s1.Hits != procs {
		t.Fatalf("second run: %d workers created, %d taken, want 0 and %d", s2.Misses-s1.Misses, s2.Hits-s1.Hits, procs)
	}
	if n > procs+32 {
		t.Errorf("second run allocated %d objects for %d processes, want at most one each", n, procs)
	}
	wantWorkers(t, "second run", base, procs)
	DropIdleWorkers()
	wantWorkers(t, "dropped", base, 0)
}

// TestKilledWorkerNotPooled: however a process is force-terminated, its
// worker exits — only a body that returned hands its worker back.
func TestKilledWorkerNotPooled(t *testing.T) {
	DropIdleWorkers()
	never := new(Future)
	waiters := func(k *Kernel, n int) {
		for i := 0; i < n; i++ {
			k.Spawn("waiter", func(p *Proc) { never.Await(p) })
		}
	}
	finishers := func(k *Kernel, n int) {
		for i := 0; i < n; i++ {
			k.Spawn("finisher", func(p *Proc) { p.Wait(1) })
		}
	}
	t.Run("deadlock", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := New()
		waiters(k, 5)
		finishers(k, 3)
		var de *DeadlockError
		if err := k.Run(); !errors.As(err, &de) || len(de.Blocked) != 5 {
			t.Fatalf("Run = %v, want 5 blocked", err)
		}
		wantWorkers(t, "deadlock", base, 3)
	})
	DropIdleWorkers()
	t.Run("shutdown", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := New()
		waiters(k, 4)
		k.At(2, func() {
			if got := runtime.NumGoroutine(); got > base+4 {
				t.Errorf("%d goroutines with 4 processes parked, want %d", got, base+4)
			}
			k.Shutdown() // in event context, on the worker of the last one to park
		})
		mustRun(t, k)
		wantWorkers(t, "shutdown", base, 0)
	})
	t.Run("cancel", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := New()
		var flag atomic.Bool
		k.SetCancel(&flag)
		waiters(k, 3)
		k.Spawn("spinner", func(p *Proc) {
			for {
				p.Wait(1)
				if p.Now() == 10 {
					flag.Store(true)
				}
			}
		})
		if err := k.Run(); !errors.Is(err, ErrCanceled) {
			t.Fatalf("Run = %v, want cancellation", err)
		}
		wantWorkers(t, "cancel", base, 0)
	})
	t.Run("driver", func(t *testing.T) {
		base := runtime.NumGoroutine()
		// The victim parks and drives the loop; the callback it executes
		// kills it. The driving goroutine must take over and finish the run.
		k := New()
		resumed, later := false, false
		var victim *Proc
		victim = k.Spawn("victim", func(p *Proc) {
			k.At(5, func() { victim.kill() })
			p.Wait(10)
			resumed = true
		})
		k.At(20, func() { later = true })
		mustRun(t, k)
		if resumed || !later {
			t.Fatalf("resumed=%v later=%v, want false true", resumed, later)
		}
		wantWorkers(t, "driver", base, 0)
	})
	t.Run("unstarted", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := New()
		finishers(k, 2)
		p := k.Spawn("doomed", func(p *Proc) { t.Error("killed before its first wake-up, ran") })
		p.kill()
		mustRun(t, k)
		wantWorkers(t, "unstarted", base, 2)
	})
	DropIdleWorkers()
}

// TestBodyPanicSurfacesFromRun: a panic in a body is the caller's, with its
// value; the parked processes are unwound and the stock works on.
func TestBodyPanicSurfacesFromRun(t *testing.T) {
	DropIdleWorkers()
	base := runtime.NumGoroutine()
	k := New()
	never := new(Future)
	unwound := 0
	for i := 0; i < 3; i++ {
		k.Spawn("parked", func(p *Proc) {
			defer func() { unwound++ }()
			never.Await(p)
		})
	}
	k.Spawn("done", func(p *Proc) { p.Wait(1) })
	k.Spawn("faulty", func(p *Proc) {
		p.Wait(5)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("Run left with %v, want the body's panic value", r)
			}
		}()
		k.Run()
		t.Fatal("Run returned")
	}()
	if unwound != 3 {
		t.Errorf("%d of 3 parked processes unwound", unwound)
	}
	wantWorkers(t, "after panic", base, 1)
	mustRun(t, switchKernel(4, 3))
	wantWorkers(t, "next run", base, 4)
	DropIdleWorkers()
}

// TestProcPoolConcurrent has eight goroutines build, run and drop kernels
// on the shared stock at once — finishing, deadlocked and never run ones.
// Whatever worker a process gets, the fingerprint is the solo run's. Run
// under -race.
func TestProcPoolConcurrent(t *testing.T) {
	shape := func(s int) *Kernel {
		k := switchKernel(3+5*s, 4+s)
		if s%2 == 1 {
			k.Spawn("stuck", func(p *Proc) { new(Future).Await(p) })
		}
		return k
	}
	run := func(s int) uint64 {
		k := shape(s)
		var de *DeadlockError
		if err := k.Run(); (err != nil) != (s%2 == 1) || (err != nil && !errors.As(err, &de)) {
			t.Errorf("shape %d: Run = %v", s, err)
		}
		return k.Fingerprint()
	}
	const shapes = 4
	var want [shapes]uint64
	for s := range want {
		want[s] = run(s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				s := (g + i) % shapes
				shape(s) // spawned, never run
				if fp := run(s); fp != want[s] {
					t.Errorf("goroutine %d run %d shape %d: fingerprint %#x, solo %#x", g, i, s, fp, want[s])
				}
			}
		}(g)
	}
	wg.Wait()
	DropIdleWorkers()
}

// TestProcPoolCap: more processes than the cap finish in one run; the stock
// stops at the cap and the rest exit.
func TestProcPoolCap(t *testing.T) {
	DropIdleWorkers()
	base := runtime.NumGoroutine()
	mustRun(t, switchKernel(maxIdleWorkers+100, 1))
	wantWorkers(t, "over the cap", base, maxIdleWorkers)
	mustRun(t, switchKernel(10, 1))
	wantWorkers(t, "small run on a full stock", base, maxIdleWorkers)
	DropIdleWorkers()
	wantWorkers(t, "dropped", base, 0)
}
