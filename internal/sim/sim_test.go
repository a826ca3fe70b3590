package sim

import (
	"testing"
)

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []int
	k.At(3, func() { order = append(order, 3) })
	k.At(1, func() { order = append(order, 1) })
	k.At(2, func() { order = append(order, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if k.Now() != 3 {
		t.Fatalf("final time %v, want 3", k.Now())
	}
}

func TestEventTieBreakFIFO(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := New()
	var at Time
	k.At(10, func() {
		k.After(5, func() { at = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcWait(t *testing.T) {
	k := New()
	var times []Time
	k.Spawn("w", func(p *Proc) {
		times = append(times, p.Now())
		p.Wait(7)
		times = append(times, p.Now())
		p.Wait(3)
		times = append(times, p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 7, 10}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := New()
		var trace []string
		for _, n := range []string{"a", "b", "c"} {
			name := n
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Wait(2)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestFutureCompleteBeforeAwait(t *testing.T) {
	k := New()
	f := NewFuture()
	var got interface{}
	k.At(0, func() { f.Complete(k, 42) })
	k.Spawn("r", func(p *Proc) {
		p.Wait(5)
		got = f.Await(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("Await returned %v, want 42", got)
	}
}

func TestFutureWakesAllWaiters(t *testing.T) {
	k := New()
	f := NewFuture()
	woke := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *Proc) {
			if f.Await(p) != "x" {
				t.Error("wrong future value")
			}
			woke++
		})
	}
	k.At(9, func() { f.Complete(k, "x") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 4 {
		t.Fatalf("only %d/4 waiters woke", woke)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	k := New()
	f := NewFuture()
	f.Complete(k, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double complete did not panic")
		}
	}()
	f.Complete(k, 2)
}

func TestDeadlockDetection(t *testing.T) {
	k := New()
	f := NewFuture() // never completed
	k.Spawn("stuck", func(p *Proc) { f.Await(p) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck" {
		t.Fatalf("wrong blocked set: %v", de.Blocked)
	}
}

func TestShutdownAfterStop(t *testing.T) {
	k := New()
	f := NewFuture()
	k.Spawn("s", func(p *Proc) { f.Await(p) })
	k.At(1, func() { k.Stop() })
	k.At(2, func() { t.Error("event after Stop executed") })
	_ = k.Run()
	k.Shutdown() // must not hang or panic
}

func TestYield(t *testing.T) {
	k := New()
	var trace []string
	k.Spawn("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Yield()
		trace = append(trace, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		trace = append(trace, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestWaitUntilPastIsNoop(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) {
		p.Wait(10)
		p.WaitUntil(5) // already past
		if p.Now() != 10 {
			t.Errorf("WaitUntil moved time backwards to %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcs(t *testing.T) {
	k := New()
	const n = 1000
	count := 0
	for i := 0; i < n; i++ {
		k.Spawn("p", func(p *Proc) {
			p.Wait(1)
			count++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("%d/%d procs completed", count, n)
	}
}
