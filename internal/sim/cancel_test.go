package sim

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestCancelMidRun: a flag set from inside an event callback stops the run
// at the next checkpoint — deterministically, since the checkpoint period
// is in executed events — kills the parked processes, and surfaces the
// typed error.
func TestCancelMidRun(t *testing.T) {
	k := New()
	flag := new(atomic.Bool)
	k.SetCancel(flag)
	total := 8 * cancelCheckEvery
	ran := 0
	for i := 0; i < total; i++ {
		k.At(Time(i+1), func() { ran++ })
	}
	k.At(0.5, func() { flag.Store(true) })
	k.Spawn("parked", func(p *Proc) { NewFuture().Await(p) }) // would deadlock if not canceled
	err := k.Run()
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want *CanceledError", err)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("errors.Is(%v, ErrCanceled) = false", err)
	}
	if ran == 0 || ran >= total {
		t.Fatalf("ran %d of %d events; want a strict mid-run stop", ran, total)
	}
	if ce.Events == 0 || ce.Events > uint64(total)+2 {
		t.Fatalf("CanceledError.Events = %d", ce.Events)
	}
	for _, p := range k.procs {
		if !p.done {
			t.Fatalf("process %s still live after cancellation", p.name)
		}
	}
}

// TestCancelBeforeRun: an already-set flag (an expired deadline) stops the
// run before the first event.
func TestCancelBeforeRun(t *testing.T) {
	k := New()
	flag := new(atomic.Bool)
	flag.Store(true)
	k.SetCancel(flag)
	ran := false
	k.At(1, func() { ran = true })
	err := k.Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run() = %v, want ErrCanceled", err)
	}
	if ran {
		t.Fatal("event executed despite pre-run cancellation")
	}
	if _, err := k.SnapshotState(); err == nil {
		t.Fatal("a canceled kernel must not be capturable")
	}
}

// TestCancelUnsetIsFree: with no flag installed the run completes exactly
// as before (the checkpoint is dormant).
func TestCancelUnsetIsFree(t *testing.T) {
	k := New()
	ran := 0
	for i := 0; i < 2*cancelCheckEvery; i++ {
		k.At(Time(i+1), func() { ran++ })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 2*cancelCheckEvery {
		t.Fatalf("ran %d events, want %d", ran, 2*cancelCheckEvery)
	}
}

// TestCancelTimerOnlyRun: timers are executed events like any other, so a
// run made only of timers reaches the checkpoint too. A self-re-arming timer
// sets the flag at its first firing; the run must stop within one polling
// period instead of executing all of its firings.
func TestCancelTimerOnlyRun(t *testing.T) {
	k := New()
	flag := new(atomic.Bool)
	k.SetCancel(flag)
	const total = 5_000_000
	ran := 0
	var fire func(interface{})
	fire = func(interface{}) {
		ran++
		flag.Store(true)
		if ran < total {
			k.TimerAt(k.Now()+1, fire, nil)
		}
	}
	k.TimerAt(1, fire, nil)
	err := k.Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run() = %v after %d of %d timer firings, want ErrCanceled", err, ran, total)
	}
	if ran > cancelCheckEvery {
		t.Fatalf("%d timer firings ran past a set flag; the checkpoint is every %d events", ran, cancelCheckEvery)
	}
}
