package fixedhome

import (
	"diva/internal/core"
	"diva/internal/mesh"
	"diva/internal/sim"
)

// Locks in the fixed home strategy are managed by the variable's home
// processor with a FIFO queue: LOCK-REQ travels to the home, the home
// grants the lock or queues the requester, and UNLOCK releases it at the
// home, which grants the next requester. Every lock message carries the
// variable as its payload and the requesting processor in Msg.Tag.

type lockState struct {
	held  bool
	owner int
	// holder is the home's view of who the lock is granted to (-1 when
	// free): the reactive-mode duplicate guards key on it — a redirected
	// request or release can be delivered twice, once per channel.
	holder int
	queue  core.FIFO[int]
}

// freeLock is a lock nobody holds, requested or queues for.
var freeLock = lockState{owner: -1, holder: -1}

// lockWaiter is the lock wait of the process on one processor: a process
// blocks on one thing at a time, so one slot per processor serves every
// variable. v names the variable waited for, so a stray or duplicate grant
// for another one is still recognized.
type lockWaiter struct {
	v   *core.Variable
	fut *sim.Future
}

// sendLock sends one lock message about v on behalf of processor from.
func (s *strategy) sendLock(src, dst int, kind uint8, v *core.Variable, from int) {
	s.m.Net.SendPooledTag(src, dst, core.LockBytes, kind, from, v)
}

// Lock implements core.Strategy.
func (s *strategy) Lock(p *core.Proc, v *core.Variable) {
	vs := vstate(v)
	if vs.lock.owner == p.ID {
		panic("fixedhome: recursive lock")
	}
	f := p.Park()
	s.lockWait[p.ID] = lockWaiter{v: v, fut: f}
	s.sendLock(p.ID, vs.home, kindLockReq, v, p.ID)
	f.Await(p.Proc)
	vs.lock.owner = p.ID
}

func (s *strategy) onLockReq(m *mesh.Msg) {
	v, from := m.Payload.(*core.Variable), m.Tag
	vs := vstate(v)
	ls := &vs.lock
	if s.react {
		if m.Dst != vs.home {
			// The lock manager failed over: forward to the current home.
			s.sendLock(m.Dst, vs.home, m.Kind, v, from)
			return
		}
		if ls.held && ls.holder == from {
			return // duplicate of the request that holds the lock
		}
		for _, q := range ls.queue.Items() {
			if q == from {
				return // duplicate of an already-queued request
			}
		}
	}
	if ls.held {
		ls.queue.Push(from)
		return
	}
	ls.held = true
	s.grantLock(v, from)
}

func (s *strategy) grantLock(v *core.Variable, to int) {
	vs := vstate(v)
	vs.lock.holder = to
	s.sendLock(vs.home, to, kindLockGrant, v, to)
}

func (s *strategy) onLockGrant(m *mesh.Msg) {
	w := &s.lockWait[m.Tag]
	if w.fut == nil || w.v != m.Payload.(*core.Variable) {
		if s.react {
			return // duplicate grant via a redirected request
		}
		panic("fixedhome: lock granted to a non-waiter")
	}
	f := w.fut
	*w = lockWaiter{}
	f.Complete(s.m.K, nil)
}

// Unlock implements core.Strategy.
func (s *strategy) Unlock(p *core.Proc, v *core.Variable) {
	vs := vstate(v)
	if vs.lock.owner != p.ID {
		panic("fixedhome: unlock by non-holder")
	}
	vs.lock.owner = -1
	s.sendLock(p.ID, vs.home, kindLockRel, v, p.ID)
}

func (s *strategy) onLockRel(m *mesh.Msg) {
	v, from := m.Payload.(*core.Variable), m.Tag
	vs := vstate(v)
	ls := &vs.lock
	if s.react {
		if m.Dst != vs.home {
			s.sendLock(m.Dst, vs.home, m.Kind, v, from)
			return
		}
		if !ls.held || ls.holder != from {
			return // duplicate release: the lock already moved on
		}
	}
	if !ls.held {
		panic("fixedhome: release of a free lock")
	}
	if ls.queue.Len() > 0 {
		next := ls.queue.Front()
		ls.queue.Pop()
		s.grantLock(v, next)
		return
	}
	ls.held = false
	ls.holder = -1
}
