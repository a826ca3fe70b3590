package sim

import (
	"fmt"
	"math"
	"sort"
)

// fpGolden is the multiplier of the fingerprint hash chain (see fold).
const fpGolden = 0x9e3779b97f4a7c15

// Time is simulated time in microseconds.
type Time = float64

// event is one scheduled occurrence: a process wakeup (proc != nil) or a
// callback whose payload lives in the kernel's slot table (slot). Process
// wakeups — the most frequent event by far — carry their payload inline;
// callbacks pay one indirection. Keeping the queue entry at 32 bytes
// (vs. 56 with the callback variants unboxed inline) nearly halves the
// memory the ladder's appends, inserts and epoch sorts move.
type event struct {
	t    Time
	seq  uint64
	proc *Proc
	slot int32
}

// payload holds a callback event's fields: a typed callback applied to arg,
// or a func() closure as the fallback. Slots live in the kernel's store
// (evStore.pay) and are recycled through a free stack, so scheduling stays
// allocation-free in steady state.
type payload struct {
	hfn func(interface{})
	arg interface{}
	fn  func()
}

// before is the queue's strict ordering: time, then schedule order.
func (e *event) before(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// dead reports whether the slot belongs to a canceled timer (CancelTimer
// clears it); the queue drops its entry (ladderQueue.dropDead).
func (p *payload) dead() bool { return p.hfn == nil && p.fn == nil }

// Stats are cumulative counters of kernel activity. Events counts every
// executed event, timers and skipped wakeups of killed processes included;
// a canceled timer never executes and is never counted.
// The delivery counters are maintained by the network layer:
// FusedDeliveries counts delivered message hops, FusedBusyRecv the arrivals
// among them that found the receiver's CPU busy, so the receive startup
// queued behind it.
type Stats struct {
	Events          uint64
	FusedDeliveries uint64
	FusedBusyRecv   uint64
}

// Kernel is the simulation engine. The zero value is not usable; construct
// with New.
type Kernel struct {
	now Time
	seq uint64
	// lq is the kernel's one event queue (ladder.go): process wake-ups,
	// callbacks and timers, at the current time or later. A canceled timer
	// stays in it as a dead entry until the queue drops it.
	lq ladderQueue
	// tgen is the generation of every payload slot a timer was ever armed
	// on (timer.go); nil on a kernel that never arms one.
	tgen  []uint32
	procs []*Proc

	// Stat is written by the kernel and — for the delivery counters — by
	// the network layer; read it after Run.
	Stat Stats
	fp   uint64 // running hash of the executed event order

	// Process switching (doc.go): cur is the process whose worker executes
	// (nil while the driver does), to the process a parked one asks the
	// driver to resume next, switches the resumptions of this run.
	cur, to  *Proc
	switches uint64

	// Cooperative cancellation (cancel.go): when cancel is non-nil the
	// loop polls it every cancelCheckEvery executed events (cancelCtr is
	// only ever touched by whoever executes the loop, one goroutine at a
	// time, so it needs no synchronization); canceled marks a run the
	// flag stopped, which executes nothing more.
	cancel    interface{ Load() bool }
	cancelCtr uint32
	canceled  bool

	// st is the kernel's event storage (store.go): the slabs lq queues on
	// and the callback payload table. It is handed to the process-wide
	// stock when Run returns with nothing pending and adopted from there on
	// first need.
	st evStore
}

// New returns an empty kernel at time 0.
func New() *Kernel {
	k := &Kernel{}
	k.lq.init(&k.st)
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Pending returns the number of scheduled events that have not executed
// yet, timers included and canceled timers not. It is exact at every point,
// so event callbacks can use it as a quiescence check: Pending() == 0 means
// nothing else is in flight besides the running callback.
func (k *Kernel) Pending() int { return k.lq.len() }

// SetPinned does nothing.
//
// Deprecated: Run pins nothing; process switches bypass the scheduler.
func (k *Kernel) SetPinned(pinned bool) {}

// Fingerprint returns a hash chain over the executed event order: every
// popped event folds its (time, sequence) pair into the running value.
// Two runs with the same fingerprint executed the exact same events in the
// exact same order — the determinism regression tests rely on this.
func (k *Kernel) Fingerprint() uint64 { return k.fp }

// fold records an executed event's (time, sequence) pair in the
// fingerprint hash chain. loop is its only caller: every executed event
// folds there.
func (k *Kernel) fold(e *event) {
	k.fp = k.fp*fpGolden + (math.Float64bits(e.t) ^ e.seq)
}

// allocSeq returns the next sequence number for an event scheduled by
// this kernel.
func (k *Kernel) allocSeq() uint64 {
	k.seq++
	return k.seq
}

// SkipSeq consumes one sequence number without scheduling an event. The
// network's reactive mode calls it when a routed message is dropped at a
// failure point, in place of the arrival event the message would have
// carried. It keeps the event numbering that the reactive goldens pin;
// the skipped sequence is never executed, so it never reaches the
// fingerprint.
func (k *Kernel) SkipSeq() { k.allocSeq() }

// takeSlot fetches and recycles a callback event's payload. The slot is
// recycled without clearing: it is fully overwritten on reuse, and until
// then it retains only a bounded number of already-executed callback
// references, which the store scrubs before it outlives the kernel. A slot
// that ever held a timer moves to its next generation, so the ID of a timer
// that fired goes stale (timer.go).
func (k *Kernel) takeSlot(slot int32) payload {
	pl := k.st.pay[slot]
	k.st.payFree = append(k.st.payFree, slot)
	if int(slot) < len(k.tgen) {
		k.tgen[slot]++
	}
	return pl
}

// checkPast panics when t lies before now: it would make time run backwards.
// The negated test also refuses a NaN t, which compares false either way.
func (k *Kernel) checkPast(t Time) {
	if !(t >= k.now) {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
}

// slot stores a callback payload and returns its table index.
func (k *Kernel) slot(p payload) int32 {
	st := &k.st
	if n := len(st.payFree); n > 0 {
		s := st.payFree[n-1]
		st.payFree = st.payFree[:n-1]
		st.pay[s] = p
		return s
	}
	st.pay = append(st.pay, p)
	return int32(len(st.pay) - 1)
}

// At schedules fn to run in event context at absolute time t. Scheduling in
// the past panics: it would make time run backwards.
func (k *Kernel) At(t Time, fn func()) {
	k.checkPast(t)
	k.lq.push(event{t: t, seq: k.allocSeq(), slot: k.slot(payload{fn: fn})})
}

// AtCall schedules fn(arg) to run in event context at absolute time t.
// Unlike At it captures no closure: callers keep one long-lived fn and pass
// per-event state through arg (a pointer, so no boxing allocation either).
func (k *Kernel) AtCall(t Time, fn func(interface{}), arg interface{}) {
	k.checkPast(t)
	k.lq.push(event{t: t, seq: k.allocSeq(), slot: k.slot(payload{hfn: fn, arg: arg})})
}

// atProc schedules p to resume at absolute time t, with no allocation.
func (k *Kernel) atProc(t Time, p *Proc) {
	if p.k != k {
		panic("sim: scheduling a wakeup for a process of another kernel")
	}
	k.checkPast(t)
	k.lq.push(event{t: t, seq: k.allocSeq(), proc: p})
}

// Run executes events until the queue is empty or SetCancel's flag stops
// it. It returns an error if, at the end, some processes are still blocked
// — that indicates a deadlock (or a forgotten wake-up) in the simulated
// system. A panic in a process body leaves Run with its value, the parked
// processes unwound.
//
// The simulation is strictly sequential: the caller's goroutine or one
// process's worker runs at any time; see doc.go for the coroutine switches
// that enforce it without the Go scheduler.
func (k *Kernel) Run() error {
	if k.cancelRequested() {
		// Canceled before the first event (e.g. an already-expired
		// deadline): stop deterministically without executing anything.
		k.canceled = true
	}
	returned := false
	defer func() {
		if !returned {
			k.Shutdown()
		}
		k.foldSwitches()
	}()
	k.loop(nil)
	returned = true
	if k.canceled {
		k.Shutdown()
		return &CanceledError{At: k.now, Events: k.Stat.Events}
	}
	if blocked := k.blocked(nil); len(blocked) > 0 {
		sort.Strings(blocked)
		k.Shutdown()
		return &DeadlockError{Blocked: blocked, At: k.now}
	}
	if k.Pending() == 0 {
		k.releaseStore()
	}
	return nil
}

// blocked appends the names of the processes that have not finished.
func (k *Kernel) blocked(names []string) []string {
	for _, p := range k.procs {
		if !p.done {
			names = append(names, p.Name())
		}
	}
	return names
}

// foldSwitches adds the kernel's process switches to ProcStats.
func (k *Kernel) foldSwitches() {
	procPool.mu.Lock()
	procPool.switches += k.switches
	procPool.mu.Unlock()
	k.switches = 0
}

// releaseStore hands the kernel's event storage to the process-wide stock
// once a run has drained the queue; dead entries left in it go with the
// slabs. A run that ended with events pending — cancellation, deadlock —
// keeps its store: the events are in it. The kernel stays usable;
// scheduling again adopts storage afresh.
func (k *Kernel) releaseStore() {
	k.lq.reset()
	k.st.release()
}

// loop executes events on the calling goroutine: the driver (self nil, the
// caller of Run) or a parked process. It is the one place that advances the
// clock, counts, folds the fingerprint, polls cancellation and dispatches;
// a canceled timer reaches none of them (the queue drops it). It returns
// when it pops the wakeup of self, so park returns without a switch. On
// another process's wakeup the driver resumes it and goes on; a process
// names it in k.to and yields to the driver, to return from park when it is
// resumed in turn. When nothing is left to run here the driver returns and
// a process yields, to be unwound by a kill. doc.go, "Process switches",
// has the state table.
func (k *Kernel) loop(self *Proc) {
	for k.Pending() > 0 && !k.canceled {
		if k.cancel != nil && k.checkCancel() {
			break // cancellation checkpoint hit; Run returns CanceledError
		}
		e := k.lq.pop()
		k.now = e.t
		k.Stat.Events++
		k.fold(&e)
		if p := e.proc; p != nil {
			if p.done {
				continue // killed while runnable; the pop is already folded
			}
			if p == self {
				return
			}
			if self != nil {
				k.to = p
				self.toDriver()
				return // our wakeup was popped by another driver; park returns
			}
			k.resume(p)
			continue
		}
		pl := k.takeSlot(e.slot)
		if pl.hfn != nil {
			pl.hfn(pl.arg)
		} else {
			pl.fn()
		}
		if self != nil && self.done {
			// The callback we just ran killed us: the body must not resume.
			panic(killed{})
		}
	}
	if self != nil {
		self.toDriver()
	}
}

// resume runs p, then whichever process each parked one names in k.to,
// until one gives control back naming none: it finished, found nothing to
// run, or was killed. A worker whose body returned goes back to the stock.
func (k *Kernel) resume(p *Proc) {
	for ; p != nil; p = k.to {
		w := p.w
		if w == nil {
			w = bind(p)
		}
		k.cur, k.to = p, nil
		k.switches++
		_, alive := w.next()
		k.cur = nil
		if alive && w.p == nil {
			w.shelve()
		}
	}
}

// Shutdown force-terminates all live processes. It is safe to call after
// Run has returned; used by tests to avoid goroutine leaks.
func (k *Kernel) Shutdown() {
	for _, p := range k.procs {
		if !p.done {
			p.kill()
		}
	}
}

// DeadlockError reports processes that never completed.
type DeadlockError struct {
	Blocked []string
	At      Time
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v, blocked processes: %v", e.At, e.Blocked)
}
