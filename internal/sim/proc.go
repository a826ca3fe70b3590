package sim

import "strconv"

// killed is the panic value used to unwind force-terminated processes.
type killed struct{}

// Proc is a cooperative simulated process. Its body runs on a pooled worker
// coroutine (see doc.go), and the kernel guarantees that at most one process
// (or event callback) executes at a time, so process code needs no locking
// against other simulated activity.
type Proc struct {
	k    *Kernel
	body func(*Proc)
	w    *worker // bound at the first wake-up, gone when the body is left
	name string  // "" for a process spawned by index: "p<idx>" on demand
	idx  int
	done bool
}

// Name returns the process name given at Spawn, or "p<i>" for SpawnAt.
func (p *Proc) Name() string {
	if p.name == "" {
		return "p" + strconv.Itoa(p.idx)
	}
	return p.name
}

// Index returns the index given at SpawnAt (0 for a named process).
func (p *Proc) Index() int { return p.idx }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn creates a process executing body. The process starts (in FIFO order
// with other events) at the current simulation time.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{name: name}
	k.SpawnAt(p, 0, body)
	return p
}

// SpawnAt is Spawn into a record of the caller's, named "p<i>": an SPMD
// layer carves its P records from one slab and shares one body among them.
// Until the first wake-up nothing exists but the record and its event.
func (k *Kernel) SpawnAt(p *Proc, i int, body func(p *Proc)) {
	p.k, p.idx, p.body = k, i, body
	k.procs = append(k.procs, p)
	k.atProc(k.now, p)
}

// park hands control back to the kernel and blocks until resumed: the
// process itself keeps driving the kernel loop until it pops either its own
// wakeup (park returns directly, no switch) or another process's (a switch
// through the driving goroutine). Must only be called from process context.
func (p *Proc) park() { p.k.loop(p) }

// toDriver switches to the goroutine driving the kernel and returns when that
// resumes p; a kill in between unwinds the body from here.
func (p *Proc) toDriver() {
	if !p.w.yield(struct{}{}) {
		panic(killed{})
	}
}

// kill makes a process unwind instead of resuming; when kill returns it has
// (a parked one, synchronously, on its own worker) or never will run (one
// that never started). Must be called from kernel or process context of p's
// kernel, or after Run returned. Marking done first makes any still-queued
// wakeup event a no-op. The process that is executing — it ran the callback
// that kills it — unwinds when that callback returns (loop).
func (p *Proc) kill() {
	if p.done {
		return
	}
	p.done = true
	if p.w != nil && p.k.cur != p {
		p.w.stop()
	}
}

// Wait suspends the process for d microseconds of simulated time.
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic("sim: negative wait")
	}
	if d == 0 {
		return
	}
	p.k.atProc(p.k.now+d, p)
	p.park()
}

// WaitUntil suspends the process until absolute time t (no-op if t <= now).
func (p *Proc) WaitUntil(t Time) {
	if t <= p.k.now {
		return
	}
	p.k.atProc(t, p)
	p.park()
}

// String implements fmt.Stringer.
func (p *Proc) String() string { return "proc(" + p.Name() + ")" }
