package sim

import (
	"sort"
	"testing"
)

// TestTimerOrderWithEvents: timers execute at their exact (t, schedule-order)
// position among regular events — a timer scheduled between two At calls at
// the same instant fires between them.
func TestTimerOrderWithEvents(t *testing.T) {
	k := New()
	var order []string
	k.At(10, func() { order = append(order, "a") })
	k.TimerAt(10, func(arg interface{}) { order = append(order, arg.(string)) }, "b")
	k.At(10, func() { order = append(order, "c") })
	k.TimerAt(5, func(interface{}) { order = append(order, "early") }, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"early", "a", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if k.Now() != 10 {
		t.Fatalf("final time %v, want 10", k.Now())
	}
}

// TestTimerAdvancesClockAndCounts: a timer is an ordinary event — it
// advances the clock and counts in Stat.Events.
func TestTimerAdvancesClockAndCounts(t *testing.T) {
	k := New()
	var at Time
	k.TimerAt(42, func(interface{}) { at = k.Now() }, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 42 || k.Now() != 42 {
		t.Fatalf("timer fired at %v, clock %v, want 42", at, k.Now())
	}
	if k.Stat.Events != 1 {
		t.Fatalf("Stat.Events = %d, want 1", k.Stat.Events)
	}
}

// TestTimerCancel: CancelTimer revokes a pending timer (it never fires and
// leaves Pending), returns true once, and false for every later use of the
// stale ID.
func TestTimerCancel(t *testing.T) {
	k := New()
	fired := false
	id := k.TimerAt(100, func(interface{}) { fired = true }, nil)
	if n := k.Pending(); n != 1 {
		t.Fatalf("Pending = %d, want 1", n)
	}
	if !k.CancelTimer(id) {
		t.Fatal("first cancel returned false")
	}
	if k.CancelTimer(id) {
		t.Fatal("second cancel of the same ID returned true")
	}
	if n := k.Pending(); n != 0 {
		t.Fatalf("Pending after cancel = %d, want 0", n)
	}
	k.At(200, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled timer fired")
	}
}

// TestTimerCancelAfterFire: once a timer has fired its ID is stale —
// cancellation reports "the timeout won the race".
func TestTimerCancelAfterFire(t *testing.T) {
	k := New()
	id := k.TimerAt(5, func(interface{}) {}, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.CancelTimer(id) {
		t.Fatal("cancel after fire returned true")
	}
}

// TestTimerGenerationOnSlotReuse: a canceled timer's ID never cancels a
// timer scheduled after it, whichever payload slot that one takes.
func TestTimerGenerationOnSlotReuse(t *testing.T) {
	k := New()
	var fired []string
	a := k.TimerAt(10, func(interface{}) { fired = append(fired, "a") }, nil)
	if !k.CancelTimer(a) {
		t.Fatal("cancel a failed")
	}
	b := k.TimerAt(20, func(interface{}) { fired = append(fired, "b") }, nil)
	if k.CancelTimer(a) {
		t.Fatal("stale ID canceled a later timer")
	}
	if n := k.Pending(); n != 1 {
		t.Fatalf("Pending = %d, want 1", n)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "b" {
		t.Fatalf("fired %v, want [b]", fired)
	}
	_ = b
}

// TestTimerCancelIsNeverObserved: a canceled timer is invisible to the run
// — Stat.Events counts only the events that actually executed — and the
// same schedule-and-cancel pattern is fingerprint-reproducible run to run.
func TestTimerCancelIsNeverObserved(t *testing.T) {
	run := func() (uint64, uint64) {
		k := New()
		for i := 0; i < 8; i++ {
			id := k.TimerAt(Time(50+i), func(interface{}) {
				t.Error("canceled timer fired")
			}, nil)
			k.CancelTimer(id)
		}
		k.At(10, func() {})
		k.TimerAt(20, func(interface{}) {}, nil)
		k.At(30, func() {})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Fingerprint(), k.Stat.Events
	}
	fp1, ev1 := run()
	fp2, ev2 := run()
	if ev1 != 3 {
		t.Fatalf("Stat.Events = %d, want 3 (canceled timers must not count)", ev1)
	}
	if fp1 != fp2 || ev1 != ev2 {
		t.Fatalf("identical runs diverged: fp %#x/%#x, events %d/%d", fp1, fp2, ev1, ev2)
	}
}

// TestTimerStress: many timers at colliding pseudo-random times, with a
// deterministic subset canceled, fire in exact (t, schedule-order) sequence.
func TestTimerStress(t *testing.T) {
	k := New()
	const n = 400
	type stamp struct {
		t   Time
		seq int
	}
	var want []stamp
	var got []stamp
	rng := uint64(1999)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}
	ids := make([]TimerID, n)
	for i := 0; i < n; i++ {
		at := Time(next() % 64) // heavy collisions: ~6 timers per instant
		seq := i
		ids[i] = k.TimerAt(at, func(interface{}) {
			got = append(got, stamp{at, seq})
		}, nil)
		if seq%3 != 0 {
			want = append(want, stamp{at, seq})
		}
	}
	canceled := 0
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			if !k.CancelTimer(ids[i]) {
				t.Fatalf("cancel of pending timer %d failed", i)
			}
			canceled++
		}
	}
	if n := k.Pending(); n != len(want) {
		t.Fatalf("Pending = %d, want %d", n, len(want))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Survivors fire in (t, scheduling-order): stable sort by time.
	sort.SliceStable(want, func(i, j int) bool { return want[i].t < want[j].t })
	if len(got) != len(want) {
		t.Fatalf("%d timers fired, want %d (%d canceled)", len(got), len(want), canceled)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", k.Pending())
	}
}

// TestTimerSlotReusedByAtCall: a timer that fired gives its payload slot up,
// a plain AtCall takes it, and the timer's ID stays stale — canceling with
// it neither succeeds nor touches the AtCall.
func TestTimerSlotReusedByAtCall(t *testing.T) {
	k := New()
	ran := false
	var id TimerID
	id = k.TimerAt(1, func(interface{}) {
		k.AtCall(2, func(interface{}) { ran = true }, "atcall")
		if k.st.pay[id.slot].arg != "atcall" {
			t.Fatal("the AtCall did not take the fired timer's slot; the test needs it to")
		}
		if k.CancelTimer(id) {
			t.Fatal("the fired timer's ID canceled the AtCall in its slot")
		}
	}, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || k.Stat.Events != 2 {
		t.Fatalf("AtCall ran %v, %d events; want it run, 2 events", ran, k.Stat.Events)
	}
}

// TestOnlyCanceledTimersLeft: a kernel whose queue holds nothing but
// canceled timers is quiescent. Run stops at the last live event, counts
// only live events, hands its store to the stock with the dead entries, and
// the state can be captured.
func TestOnlyCanceledTimersLeft(t *testing.T) {
	emptyStock()
	k := New()
	k.At(1, func() {})
	k.At(2, func() {})
	for i := 0; i < 100; i++ { // enough to spread over rungs and a tail
		k.CancelTimer(k.TimerAt(Time(10+i%37), func(interface{}) { t.Error("canceled timer fired") }, nil))
	}
	if n := k.Pending(); n != 2 {
		t.Fatalf("Pending = %d, want 2", n)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Stat.Events != 2 || k.Now() != 2 || k.Pending() != 0 {
		t.Fatalf("%d events, clock %v, %d pending; want 2, 2, 0", k.Stat.Events, k.Now(), k.Pending())
	}
	if k.st.own || stockSetCount() != 1 {
		t.Fatalf("store kept (own=%v), stock holds %d sets; want it handed over", k.st.own, stockSetCount())
	}
	stock.mu.Lock()
	for _, r := range stock.sets[0].set.spare {
		for b := range r.bkts {
			if r.bkts[b] != nil {
				t.Fatal("a retired rung keeps a bucket of dead entries")
			}
		}
	}
	stock.mu.Unlock()
	if _, err := k.SnapshotState(); err != nil {
		t.Fatal(err)
	}
}
