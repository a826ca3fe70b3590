package core

import (
	"math/bits"

	"diva/internal/sim"
)

// VarID names a global variable.
type VarID int32

// Variable is the machine-wide record of a global variable. Strategies hang
// their per-variable protocol state off State.
type Variable struct {
	ID      VarID
	Size    int // payload size in bytes (fixed at Alloc)
	Creator int
	// Data is the current committed value. Values are immutable by
	// convention; Write installs a fresh value. A fresh value may be
	// carved from a block the application allocated, but is never
	// rewritten once written: snapshots and forks share it by reference.
	Data interface{}
	// State is owned by the data management strategy.
	State interface{}

	rw rwQueue

	// local is a per-processor valid-copy bitmap maintained by the
	// strategies (SetLocal/ClearLocal): bit p set means processor p can
	// serve a read from its local copy with no protocol action. It backs
	// the machine's read fast path on unbounded-cache machines — one load
	// next to the rw state instead of the pointer chase through State —
	// and is the fixed home strategy's copy directory. One bit per
	// processor, carved from the machine's bitmap slab (Machine.newLocal).
	local []uint64
}

// LocalBit reports whether processor p holds a locally readable copy.
func (v *Variable) LocalBit(p int) bool {
	return v.local[p>>6]>>(uint(p)&63)&1 == 1
}

// SetLocal marks processor p as holding a locally readable copy.
func (v *Variable) SetLocal(p int) {
	v.local[p>>6] |= 1 << (uint(p) & 63)
}

// ClearLocal removes processor p from the local-copy bitmap.
func (v *Variable) ClearLocal(p int) {
	v.local[p>>6] &^= 1 << (uint(p) & 63)
}

// ClearAllLocal empties the local-copy bitmap (write invalidation).
func (v *Variable) ClearAllLocal() {
	clear(v.local)
}

// NextLocal returns the lowest processor >= from that holds a locally
// readable copy, or -1 when there is none: an ascending scan over the copy
// holders is `for h := v.NextLocal(0); h >= 0; h = v.NextLocal(h + 1)`.
func (v *Variable) NextLocal(from int) int {
	for w := from >> 6; w < len(v.local); w++ {
		word := v.local[w]
		if w == from>>6 {
			word &= ^uint64(0) << (uint(from) & 63)
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// rwQueue serializes transactions on one variable: concurrent readers are
// admitted together, writers are exclusive, and admission is FIFO (a queued
// writer blocks later readers, preventing starvation). This models the
// request queueing that a real DSM implementation performs at copy holders
// without charging extra messages for it (design decision D4).
type rwQueue struct {
	readers int
	writer  bool
	waiters FIFO[rwWaiter]
}

type rwWaiter struct {
	write bool
	fut   *sim.Future
}

func (v *Variable) busy() bool {
	return v.rw.readers > 0 || v.rw.writer || v.rw.waiters.Len() > 0
}

// Idle reports whether no transaction is active or queued on v. Used by
// the replacement machinery: only idle variables may lose copies.
func (v *Variable) Idle() bool { return !v.busy() }

func (v *Variable) acquireRead(p *Proc) {
	q := &v.rw
	if !q.writer && q.waiters.Len() == 0 {
		q.readers++
		return
	}
	f := p.Park()
	q.waiters.Push(rwWaiter{write: false, fut: f})
	f.Await(p.Proc)
	// The releaser admitted us: the reader count was already incremented.
}

func (v *Variable) releaseRead(k *sim.Kernel) {
	q := &v.rw
	q.readers--
	if q.readers < 0 {
		panic("core: read release without acquire")
	}
	q.pump(k)
}

func (v *Variable) acquireWrite(p *Proc) {
	q := &v.rw
	if !q.writer && q.readers == 0 && q.waiters.Len() == 0 {
		q.writer = true
		return
	}
	f := p.Park()
	q.waiters.Push(rwWaiter{write: true, fut: f})
	f.Await(p.Proc)
}

func (v *Variable) releaseWrite(k *sim.Kernel) {
	q := &v.rw
	if !q.writer {
		panic("core: write release without acquire")
	}
	q.writer = false
	q.pump(k)
}

// pump admits queued transactions in FIFO order: a writer when the variable
// is fully idle, then a maximal run of readers.
func (q *rwQueue) pump(k *sim.Kernel) {
	for q.waiters.Len() > 0 {
		w := q.waiters.Front()
		if w.write {
			if q.writer || q.readers > 0 {
				return
			}
			q.writer = true
			q.waiters.Pop()
			w.fut.Complete(k, nil)
			return
		}
		if q.writer {
			return
		}
		q.readers++
		q.waiters.Pop()
		w.fut.Complete(k, nil)
	}
}
