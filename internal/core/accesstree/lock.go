package accesstree

import (
	"diva/internal/core"
	"diva/internal/mesh"
	"diva/internal/sim"
)

// Locks on global variables are implemented with the arrow protocol
// (path-reversal) on the variable's own access tree: every tree node holds
// an arrow pointing toward the current tail of the distributed request
// queue; a lock request travels along arrows, flipping each one back toward
// the requester, and queues behind the tail it finds; the token (the lock
// itself) is then handed from holder to successor with a single direct
// message. This is one of the "elegant algorithms that use access trees,
// too" (§2 of the paper).
//
// The arrows live in the dense node table next to the data pointers
// (nodeState.arrow); initially every arrow points toward the creator's
// leaf, where the token rests.

// lockState is a variable's lock: where the token is, and the head of the
// distributed FIFO queue.
type lockState struct {
	// tokenAt is the leaf where the token rests (meaningless while the
	// token is in flight).
	tokenAt int
	// succ is the leaf queued directly behind the token's position — its
	// holder, or the leaf a free token rests at (-1: none).
	succ      int
	holder    int // leaf currently holding the lock (-1: none)
	tokenFree bool
	inFlight  bool
}

// restingLock is a lock nobody holds or waits for, its token at leaf.
func restingLock(leaf int) lockState {
	return lockState{tokenAt: leaf, tokenFree: true, holder: -1, succ: -1}
}

// locker is the lock wait of the process on one processor. A process blocks
// on one thing at a time, so one slot per processor serves every variable:
// a leaf in a variable's queue that is not the token's position is blocked
// in Lock on that very variable.
type locker struct {
	v    *Variable   // the variable waited for; nil when not blocked in Lock
	fut  *sim.Future // completed by the token's arrival
	next int         // leaf queued directly behind this waiter (-1: none)
}

// successor returns the queue link behind leaf, which is either the
// token's position or a blocked waiter (the two places a queue tail can
// be).
func (s *strategy) successor(v *Variable, leaf int) *int {
	vs := vstate(v)
	if ls := &vs.lock; !ls.inFlight && ls.tokenAt == leaf {
		return &ls.succ
	}
	w := &s.lockers[s.procOf(vs, leaf)]
	if w.v != v {
		panic("accesstree: queue tail neither holds the token nor waits for it")
	}
	return &w.next
}

// Lock implements core.Strategy.
func (s *strategy) Lock(p *core.Proc, v *Variable) {
	vs := vstate(v)
	ls := &vs.lock
	leaf := s.t.LeafOfProc[p.ID]
	if ls.holder == leaf {
		panic("accesstree: recursive lock")
	}
	a := vs.nodes[leaf].arrow
	if a == towardSelf {
		// This leaf is the sink. Either the free token rests here, or the
		// process would queue behind itself (a double acquire).
		if ls.tokenFree && !ls.inFlight && ls.tokenAt == leaf {
			ls.tokenFree = false
			ls.holder = leaf
			return
		}
		panic("accesstree: lock re-acquired while queued")
	}
	f := p.Park()
	w := &s.lockers[p.ID]
	w.v, w.fut = v, f
	vs.nodes[leaf].arrow = towardSelf
	s.sendLockHop(vs, v, leaf, a, leaf)
	f.Await(p.Proc)
	ls.holder = leaf
}

// sendLockHop forwards origin's request from tree node cur along arrow a.
func (s *strategy) sendLockHop(vs *varState, v *Variable, cur int, a int8, origin int) {
	next := s.neighbor(cur, a)
	s.m.Net.SendPooledTag(s.procOf(vs, cur), s.procOf(vs, next), core.LockBytes,
		kindLockReq, packTag3(next, cur, origin), v)
}

// onLockReq performs one path-reversal step.
func (s *strategy) onLockReq(m *mesh.Msg) {
	v := m.Payload.(*Variable)
	cur, from, origin := unpackTag3(m.Tag)
	vs := vstate(v)
	st := &vs.nodes[cur]
	old := st.arrow
	st.arrow = s.dirTo(cur, from)
	if old != towardSelf {
		s.sendLockHop(vs, v, cur, old, origin)
		return
	}
	// cur is the previous sink: a leaf that holds the token or waits in
	// the queue. The origin becomes its successor.
	succ := s.successor(v, cur)
	if *succ != -1 {
		panic("accesstree: queue tail already has a successor")
	}
	*succ = origin
	if ls := &vs.lock; ls.tokenFree && !ls.inFlight && ls.tokenAt == cur {
		s.passToken(vs, v, cur)
	}
}

// passToken moves the token from leaf cur, where it is, to the queued
// successor.
func (s *strategy) passToken(vs *varState, v *Variable, cur int) {
	ls := &vs.lock
	to := ls.succ
	ls.succ = -1
	ls.tokenFree = false
	ls.inFlight = true
	s.m.Net.SendPooledTag(s.procOf(vs, cur), s.procOf(vs, to), core.LockBytes,
		kindLockToken, to, v)
}

// onLockToken delivers the token: the waiting process now holds the lock,
// and whoever queued behind it while it waited now queues behind the token.
func (s *strategy) onLockToken(m *mesh.Msg) {
	v := m.Payload.(*Variable)
	to := m.Tag
	ls := &vstate(v).lock
	w := &s.lockers[m.Dst]
	f := w.fut
	if w.v != v {
		panic("accesstree: token delivered to a leaf with no waiter")
	}
	ls.inFlight = false
	ls.tokenAt = to
	ls.succ = w.next
	*w = locker{next: -1}
	f.Complete(s.m.K, nil)
}

// Unlock implements core.Strategy.
func (s *strategy) Unlock(p *core.Proc, v *Variable) {
	vs := vstate(v)
	ls := &vs.lock
	leaf := s.t.LeafOfProc[p.ID]
	if ls.holder != leaf {
		panic("accesstree: unlock by non-holder")
	}
	ls.holder = -1
	if ls.succ != -1 {
		s.passToken(vs, v, leaf)
		return
	}
	ls.tokenFree = true
}
