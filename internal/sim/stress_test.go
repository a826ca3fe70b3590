package sim

import (
	"testing"
	"testing/quick"

	"diva/internal/xrand"
)

// TestHeavyEventChurn pushes many interleaved events and timers through
// the kernel and verifies global time ordering.
func TestHeavyEventChurn(t *testing.T) {
	k := New()
	rng := xrand.New(42)
	var last Time
	ordered := true
	n := 0
	for i := 0; i < 5000; i++ {
		at := Time(rng.Intn(100000))
		k.At(at, func() {
			if k.Now() < last {
				ordered = false
			}
			last = k.Now()
			n++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ordered {
		t.Fatal("events executed out of time order")
	}
	if n != 5000 {
		t.Fatalf("%d events executed, want 5000", n)
	}
}

// TestEventsScheduledFromEvents: cascading schedules keep ordering.
func TestEventsScheduledFromEvents(t *testing.T) {
	k := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			k.After(1, recurse)
		}
	}
	k.At(0, recurse)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if depth != 100 || k.Now() != 99 {
		t.Fatalf("depth %d at time %v", depth, k.Now())
	}
}

// TestProcsAndEventsInterleaved: processes waiting amid a storm of events.
func TestProcsAndEventsInterleaved(t *testing.T) {
	k := New()
	events := 0
	for i := 0; i < 500; i++ {
		k.At(Time(i*3), func() { events++ })
	}
	woke := 0
	for i := 0; i < 50; i++ {
		d := Time(i * 17 % 1400)
		k.Spawn("p", func(p *Proc) {
			p.Wait(d)
			woke++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if events != 500 || woke != 50 {
		t.Fatalf("events=%d woke=%d", events, woke)
	}
}

// TestFutureChains: processes waking each other through futures.
func TestFutureChains(t *testing.T) {
	k := New()
	const n = 64
	futs := make([]*Future, n+1)
	for i := range futs {
		futs[i] = NewFuture()
	}
	for i := 0; i < n; i++ {
		i := i
		k.Spawn("link", func(p *Proc) {
			futs[i].Await(p)
			p.Wait(10)
			futs[i+1].Complete(k, i+1)
		})
	}
	k.At(5, func() { futs[0].Complete(k, 0) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := futs[n].Value(); got != n {
		t.Fatalf("chain value %v, want %d", got, n)
	}
	if k.Now() != 5+10*n {
		t.Fatalf("chain finished at %v, want %v", k.Now(), 5+10*n)
	}
}

// TestDeterministicUnderRandomLoad: identical seeds give identical
// trajectories, via quick-checked seeds.
func TestDeterministicUnderRandomLoad(t *testing.T) {
	trajectory := func(seed uint64) (Time, int) {
		k := New()
		rng := xrand.New(seed)
		sum := 0
		for i := 0; i < 60; i++ {
			delay := Time(rng.Intn(500))
			k.Spawn("p", func(p *Proc) {
				p.Wait(delay)
				sum += int(p.Now())
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now(), sum
	}
	check := func(seed uint64) bool {
		t1, s1 := trajectory(seed)
		t2, s2 := trajectory(seed)
		return t1 == t2 && s1 == s2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// --- kill-during-handoff stress ---
//
// Process switching must keep kill synchronous: once kill() returns, the
// target never executes user code again, regardless of whether it was
// parked with no wakeup, runnable with a wakeup queued, or not yet first
// scheduled (mid-Spawn). These tests run under -race in CI.

// TestKillParkedProc: killing a process blocked on a future unwinds it
// without resuming the body.
func TestKillParkedProc(t *testing.T) {
	k := New()
	fut := NewFuture()
	resumed := false
	p := k.Spawn("parked", func(p *Proc) {
		fut.Await(p)
		resumed = true
	})
	k.At(5, func() { p.kill() })
	if err := k.Run(); err != nil {
		t.Fatalf("killed proc reported as deadlock: %v", err)
	}
	if resumed {
		t.Fatal("killed process executed past its park point")
	}
}

// TestKillRunnableProc: killing a process whose wakeup event is already
// queued must not resume it when that event pops.
func TestKillRunnableProc(t *testing.T) {
	k := New()
	resumed := false
	p := k.Spawn("runnable", func(p *Proc) {
		p.Wait(10) // wakeup queued for t=10
		resumed = true
	})
	k.At(5, func() { p.kill() }) // kill while the wakeup is pending
	later := false
	k.At(20, func() { later = true })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("killed process resumed from its queued wakeup")
	}
	if !later {
		t.Fatal("kernel stopped executing after skipping the dead wakeup")
	}
}

// TestKillMidSpawn: a process killed before its first scheduling must never
// start its body, and its pending kick-off event must be skipped.
func TestKillMidSpawn(t *testing.T) {
	k := New()
	started := false
	k.At(1, func() {
		p := k.Spawn("doomed", func(p *Proc) { started = true })
		p.kill() // before the spawn kick-off event ran
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if started {
		t.Fatal("mid-spawn-killed process started its body")
	}
}

// TestKillStressMixed is the randomized kill-during-handoff stress: a churn
// of waiting, yielding and future-chained processes with kills injected
// from event context at random times against parked, runnable and
// freshly-spawned targets. Two runs of every seed must execute the same
// event sequence (fingerprint), nobody may run after being killed, and
// survivors must complete. Run under -race in CI to pin the memory ordering
// of the switches.
func TestKillStressMixed(t *testing.T) {
	trial := func(seed uint64) (uint64, int) {
		k := New()
		rng := xrand.New(seed)
		const n = 24
		alive := make([]bool, n)
		killed := make([]bool, n)
		procs := make([]*Proc, n)
		fut := NewFuture()
		for i := 0; i < n; i++ {
			i := i
			switch i % 3 {
			case 0: // timed waiter: mostly runnable or parked with a wakeup
				d := Time(1 + rng.Intn(40))
				procs[i] = k.Spawn("waiter", func(p *Proc) {
					for j := 0; j < 20; j++ {
						if killed[i] {
							panic("killed waiter still running")
						}
						p.Wait(d)
					}
					alive[i] = true
				})
			case 1: // parked on a shared future
				procs[i] = k.Spawn("await", func(p *Proc) {
					fut.Await(p)
					if killed[i] {
						panic("killed awaiter resumed")
					}
					alive[i] = true
				})
			case 2: // yield churn: frequently in the now-queue
				procs[i] = k.Spawn("yield", func(p *Proc) {
					for j := 0; j < 50; j++ {
						if killed[i] {
							panic("killed yielder still running")
						}
						p.Yield()
					}
					alive[i] = true
				})
			}
		}
		// Kill a third of the processes from event context, at random times
		// relative to their wakeups; spawn-and-kill a few more on the spot.
		kills := 0
		for i := 0; i < n; i += 3 {
			i := i
			k.At(Time(rng.Intn(60)), func() {
				if procs[i].done {
					return // already finished; nothing to kill
				}
				killed[i] = true
				procs[i].kill()
				kills++
			})
		}
		for j := 0; j < 4; j++ {
			k.At(Time(rng.Intn(60)), func() {
				p := k.Spawn("instakill", func(p *Proc) {
					panic("instakilled process ran")
				})
				p.kill()
			})
		}
		k.At(70, func() { fut.Complete(k, nil) })
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		survivors := 0
		for i := range alive {
			if alive[i] {
				survivors++
			}
			if alive[i] && killed[i] {
				t.Fatalf("seed %d: process %d completed after being killed", seed, i)
			}
		}
		if kills == 0 {
			t.Fatalf("seed %d: no kills executed", seed)
		}
		return k.Fingerprint(), survivors
	}
	for seed := uint64(0); seed < 12; seed++ {
		fp1, s1 := trial(seed)
		fp2, s2 := trial(seed)
		if fp1 != fp2 || s1 != s2 {
			t.Fatalf("seed %d: nondeterministic under kills: fp %x/%x, survivors %d/%d",
				seed, fp1, fp2, s1, s2)
		}
		if s1 == 0 {
			t.Fatalf("seed %d: no survivors — kill stress killed everyone?", seed)
		}
	}
}

// TestDeadlockReportsAllBlocked: every stuck process appears in the error.
func TestDeadlockReportsAllBlocked(t *testing.T) {
	k := New()
	f := NewFuture()
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(p *Proc) { f.Await(p) })
	}
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected deadlock, got %v", err)
	}
	if len(de.Blocked) != 3 {
		t.Fatalf("blocked = %v, want 3 processes", de.Blocked)
	}
	if de.Error() == "" {
		t.Fatal("empty error string")
	}
}

// TestKernelReusableAfterRun: more events can be scheduled and run again.
func TestKernelReusableAfterRun(t *testing.T) {
	k := New()
	ran := 0
	k.At(10, func() { ran++ })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.At(20, func() { ran++ })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 || k.Now() != 20 {
		t.Fatalf("ran=%d now=%v", ran, k.Now())
	}
}

// TestNegativeWaitPanics and friends: API misuse is loud.
func TestNegativeWaitPanics(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative Wait did not panic")
			}
		}()
		p.Wait(-1)
	})
	_ = k.Run()
	k.Shutdown()
}

func TestNegativeAfterPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	k.After(-5, func() {})
}

func TestProcString(t *testing.T) {
	k := New()
	p := k.Spawn("zed", func(p *Proc) {})
	if p.String() != "proc(zed)" || p.Name() != "zed" {
		t.Fatalf("String=%q Name=%q", p.String(), p.Name())
	}
	if p.Kernel() != k {
		t.Fatal("Kernel() mismatch")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
