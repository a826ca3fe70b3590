package sim

// This file is the kernel's cancelable timeout events, for the reactive
// transport and strategy-level failure detection. A timer is an ordinary
// callback event: it takes a sequence number and a payload slot when
// scheduled, rides the ladder like any other event and is dispatched by the
// loop at its exact (t, seq) position. Canceling one removes nothing from
// the queue: CancelTimer clears the timer's payload slot, and the queue
// drops the dead entry and recycles the slot when it next handles the
// entry's bucket or tail, or pops it (ladderQueue.dropDead). The loop never
// sees it: it advances no clock, counts nothing, folds nothing into the
// fingerprint and ticks no cancellation counter for it. So a canceled timer
// is never observed — the (t, seq) trajectory of the surviving events is
// the one a true removal would leave, which keeps runs with many canceled
// retransmission timers (the common case: almost every ack cancels one)
// fingerprint-identical across fork/restore — and Pending does not count
// it. A timer can never resume a process; callbacks must not block.

// TimerID identifies a pending timer for cancellation: its payload slot and
// the slot's generation when it was armed. Every dispatch from a slot that
// ever held a timer, and every cancellation, moves the slot to its next
// generation, so a stale ID (its timer already fired or was canceled) is
// detected, never aliased to a later event in the same slot. The zero
// TimerID is never issued.
type TimerID struct {
	slot int32
	gen  uint32
}

// TimerAt schedules fn(arg) as a cancelable timeout at absolute time t and
// returns its TimerID. The callback runs in event context at the exact
// (t, schedule-order) position a regular AtCall event would occupy; it must
// not block, and it can never be the event that resumes a process. Unlike
// every other scheduling call, a pending timer can be revoked — CancelTimer
// makes it as if it had never been scheduled (only its sequence number
// stays consumed).
func (k *Kernel) TimerAt(t Time, fn func(interface{}), arg interface{}) TimerID {
	k.checkPast(t)
	s := k.slot(payload{hfn: fn, arg: arg})
	k.lq.push(event{t: t, seq: k.allocSeq(), slot: s})
	for int(s) >= len(k.tgen) {
		k.tgen = append(k.tgen, 1)
	}
	return TimerID{slot: s, gen: k.tgen[s]}
}

// CancelTimer revokes a pending timer. It returns false when the timer
// already fired or was already canceled (the ID is stale); the caller can
// treat that as "the timeout won the race".
func (k *Kernel) CancelTimer(id TimerID) bool {
	if int(id.slot) >= len(k.tgen) || k.tgen[id.slot] != id.gen {
		return false
	}
	k.tgen[id.slot]++
	k.st.pay[id.slot] = payload{}
	k.lq.dead++
	return true
}
