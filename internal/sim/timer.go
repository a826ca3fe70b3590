package sim

// This file is the kernel's timer tier: cancelable timeout events for the
// reactive transport and strategy-level failure detection. A timer is an
// ordinary event in every observable respect — it is allocated a sequence
// number and a payload slot when scheduled, and the loop selects it at its
// exact (t, seq) position in the global order and dispatches it like any
// other callback — but it lives in its own indexed heap so cancellation
// is a true removal: a canceled timer leaves no tombstone behind, consumes
// no pop, and never perturbs the (t, seq) trajectory of the surviving
// events. That is what keeps runs with many canceled retransmission timers
// (the common case: almost every ack cancels one) fingerprint-identical
// across fork/restore. A timer can never resume a process; callbacks must
// not block.

// TimerID identifies a pending timer for cancellation. The zero TimerID is
// never issued. Slots are recycled under a generation counter, so a stale
// ID (its timer already fired or was canceled) is detected, never aliased
// to a newer timer in the same slot.
type TimerID struct {
	slot int32
	gen  uint32
}

// timerEvent is one pending timer in the indexed heap: its place in the
// order, the kernel payload slot of its callback, and its TimerID slot.
type timerEvent struct {
	t    Time
	seq  uint64
	pay  int32
	slot int32
}

// timerQueue is a binary min-heap by (t, seq) with a slot→position index,
// so removal by TimerID is O(log n) without tombstones.
type timerQueue struct {
	h    []timerEvent
	pos  []int32 // slot -> heap index, -1 when inactive
	gen  []uint32
	free []int32
}

func (q *timerQueue) len() int { return len(q.h) }

func (q *timerQueue) peek() *timerEvent {
	if len(q.h) == 0 {
		return nil
	}
	return &q.h[0]
}

// push schedules e and returns its TimerID. The generation is bumped at
// slot reuse, invalidating every ID issued for the slot's prior lives.
func (q *timerQueue) push(e timerEvent) TimerID {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = int32(len(q.pos))
		q.pos = append(q.pos, -1)
		q.gen = append(q.gen, 1)
	}
	e.slot = slot
	q.h = append(q.h, e)
	q.pos[slot] = int32(len(q.h) - 1)
	q.siftUp(len(q.h) - 1)
	return TimerID{slot: slot, gen: q.gen[slot]}
}

// popFront removes and returns the earliest timer.
func (q *timerQueue) popFront() timerEvent {
	e := q.h[0]
	q.release(e.slot)
	last := len(q.h) - 1
	if last > 0 {
		q.h[0] = q.h[last]
		q.pos[q.h[0].slot] = 0
	}
	q.h = q.h[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return e
}

// remove cancels the timer identified by id and returns its payload slot;
// false when the id is stale.
func (q *timerQueue) remove(id TimerID) (int32, bool) {
	if id.slot < 0 || int(id.slot) >= len(q.pos) || q.gen[id.slot] != id.gen {
		return 0, false
	}
	i := int(q.pos[id.slot])
	if i < 0 {
		return 0, false
	}
	pay := q.h[i].pay
	q.release(id.slot)
	last := len(q.h) - 1
	if i < last {
		q.h[i] = q.h[last]
		q.pos[q.h[i].slot] = int32(i)
	}
	q.h = q.h[:last]
	if i < last {
		q.siftDown(i)
		q.siftUp(i)
	}
	return pay, true
}

// release retires a slot: bump the generation, mark inactive, recycle.
func (q *timerQueue) release(slot int32) {
	q.pos[slot] = -1
	q.gen[slot]++
	q.free = append(q.free, slot)
}

func (q *timerQueue) less(i, j int) bool {
	a, b := &q.h[i], &q.h[j]
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (q *timerQueue) swap(i, j int) {
	q.h[i], q.h[j] = q.h[j], q.h[i]
	q.pos[q.h[i].slot] = int32(i)
	q.pos[q.h[j].slot] = int32(j)
}

func (q *timerQueue) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			return
		}
		q.swap(i, p)
		i = p
	}
}

func (q *timerQueue) siftDown(i int) {
	n := len(q.h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			return
		}
		q.swap(i, c)
		i = c
	}
}

// TimerAt schedules fn(arg) as a cancelable timeout at absolute time t and
// returns its TimerID. The callback runs in event context at the exact
// (t, schedule-order) position a regular AtCall event would occupy; it must
// not block, and it can never be the event that resumes a process. Unlike
// every other scheduling call, a pending timer can be revoked — CancelTimer
// removes it outright, as if it had never been scheduled (only its sequence
// number stays consumed).
func (k *Kernel) TimerAt(t Time, fn func(interface{}), arg interface{}) TimerID {
	k.checkPast(t)
	return k.tq.push(timerEvent{t: t, seq: k.allocSeq(), pay: k.slot(payload{hfn: fn, arg: arg})})
}

// CancelTimer revokes a pending timer. It returns false when the timer
// already fired or was already canceled (the ID is stale); the caller can
// treat that as "the timeout won the race".
func (k *Kernel) CancelTimer(id TimerID) bool {
	pay, ok := k.tq.remove(id)
	if ok {
		k.takeSlot(pay)
	}
	return ok
}

// PendingTimers returns the number of scheduled timers that have neither
// fired nor been canceled (diagnostics and quiescence checks).
func (k *Kernel) PendingTimers() int { return k.tq.len() }
