package sim

// Future is a one-shot value that processes can block on. Complete may be
// called from event or process context; Await must be called from process
// context. A Future may have any number of waiters; all are woken when the
// value arrives. The zero value is ready for use.
//
// The first waiter is stored inline: almost every future in the simulator
// has exactly one (a transaction, a lock, a barrier entry), so the waiter
// slice — and its allocation — only materializes for fan-in futures.
type Future struct {
	done    bool
	val     interface{}
	w0      *Proc   // first waiter, inline
	waiters []*Proc // further waiters (rare)
}

// NewFuture returns an incomplete future.
func NewFuture() *Future { return &Future{} }

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// Value returns the completed value (nil if not complete).
func (f *Future) Value() interface{} { return f.val }

// Complete resolves the future and wakes all waiters (in arrival order, at
// the current simulation time). Completing twice panics: it always
// indicates a protocol bug.
func (f *Future) Complete(k *Kernel, val interface{}) {
	f.CompleteAt(k, k.now, val)
}

// CompleteAt resolves the future now but schedules its waiters to wake at
// the future time t (>= now): the batched barrier release computes leaf
// wake-up times ahead of the simulated clock. The value is visible
// immediately, so a process calling Await between now and t returns without
// waiting — callers must ensure no new waiters arrive in that window (the
// barrier guarantees it: the woken process owns the future exclusively).
func (f *Future) CompleteAt(k *Kernel, t Time, val interface{}) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.val = val
	if f.w0 != nil {
		k.atProc(t, f.w0)
		f.w0 = nil
	}
	for _, p := range f.waiters {
		k.atProc(t, p)
	}
	f.waiters = nil
}

// Await blocks the calling process until the future completes and returns
// its value. If the future is already complete it returns immediately.
func (f *Future) Await(p *Proc) interface{} {
	if f.done {
		return f.val
	}
	if f.w0 == nil {
		f.w0 = p
	} else {
		f.waiters = append(f.waiters, p)
	}
	p.park()
	return f.val
}
