package fixedhome

import (
	"diva/internal/core"
	"diva/internal/mesh"
)

// Reactive recovery for the fixed home strategy (machines with
// core.Config.Recovery == "reactive"): the home processor is a single point
// of failure, so when the transport gives up on a message addressed to a
// home — MaxRetries+1 transmissions unacknowledged and the node's interface
// down — the variable fails over to a deterministic successor: the next
// node in rank order whose interface is up. The failover is sticky (the
// directory never moves back when the old home heals; a healed node simply
// finds its variables re-homed, like a rebooted memory module that lost its
// directory) and per variable (each variable's home moves when one of its
// own messages times out, so detection latency is paid per variable, not
// globally).
//
// Give-up verdicts by message kind:
//
//   - Requests addressed to the home (READ-REQ, WRITE-REQ, LOCK-REQ,
//     LOCK-REL): redirect to the current home — failing over first when
//     the home itself is the dead endpoint. If the home moved while the
//     message was in flight, the redirect simply chases it.
//   - INVAL to a dead copy holder: the holder's copy dies with its node;
//     emulate the acknowledgment (drop the holder from the directory and
//     advance the pending-write count) and abandon the message.
//   - FETCH to a dead owner: the home reclaims ownership (the simulator's
//     value store is global, so the current value survives; a real
//     implementation would restore from the last checkpointed copy) and
//     answers the read itself.
//   - Everything else (data replies, grants, acks, evict notes): keep
//     retransmitting at the capped backoff — the destination is the
//     blocked requester or a directory note; delivery resumes at heal.
//
// Because a give-up can race a late successful delivery (the transport
// deduplicates per channel, but a redirect opens a new channel), the
// protocol handlers tolerate duplicates in reactive mode: completed futures
// are never re-completed, stray invalidation acks and duplicate lock
// traffic are ignored, and transaction records are never recycled (the
// arena leak bounds use-after-free; see releaseReq).

// enableRecovery registers the give-up handlers. Called from newStrategy on
// reactive-mode machines only.
func (s *strategy) enableRecovery() {
	net := s.m.Net
	net.OnGiveUp(kindReadReq, s.homeGiveUpReq)
	net.OnGiveUp(kindWriteReq, s.homeGiveUpReq)
	net.OnGiveUp(kindLockReq, s.homeGiveUpLock)
	net.OnGiveUp(kindLockRel, s.homeGiveUpLock)
	net.OnGiveUp(kindInval, s.invalGiveUp)
	net.OnGiveUp(kindFetch, s.fetchGiveUp)
}

// successor returns the next node in rank order after dead whose interface
// is up — the deterministic failover target. Returns dead itself when every
// other node is down (keep probing; schedules end healed).
func (s *strategy) successor(dead int) int {
	p := s.m.P()
	for i := 1; i < p; i++ {
		c := (dead + i) % p
		if !s.m.Net.NodeDownNow(c) {
			return c
		}
	}
	return dead
}

// failover moves v's home from the dead node to its successor. The
// directory travels: if the dead home owned the variable (main-memory
// ownership) or held a copy, the successor takes both roles — the dead
// node's copy is gone with it.
func (s *strategy) failover(v *core.Variable, from, to int) {
	vs := vstate(v)
	vs.home = to
	if vs.owner == from {
		vs.owner = to
	}
	if v.LocalBit(from) {
		s.dropCopy(v, from)
		v.SetLocal(to)
		s.m.Cache(to).Insert(v, to)
	}
}

// dropCopy removes a dead processor's copy from the directory.
func (s *strategy) dropCopy(v *core.Variable, proc int) {
	v.ClearLocal(proc)
	s.m.Cache(proc).Remove(v.ID, proc)
}

// homeGiveUp redirects an undeliverable home-addressed request to the
// variable's current home, failing over first when the home is down.
func (s *strategy) homeGiveUp(g mesh.GiveUp, v *core.Variable) (int, mesh.GiveUpAction) {
	vs := vstate(v)
	if g.Dst != vs.home {
		// The home moved while this message was in flight: chase it.
		return vs.home, mesh.GiveUpRedirect
	}
	if s.m.Net.NodeDownNow(vs.home) {
		if next := s.successor(vs.home); next != vs.home {
			s.failover(v, vs.home, next)
			return next, mesh.GiveUpRedirect
		}
	}
	// The home is up (a link outage, or congestion outlasting the retry
	// budget): keep probing on the same channel.
	return g.Dst, mesh.GiveUpRetry
}

func (s *strategy) homeGiveUpReq(g mesh.GiveUp) (int, mesh.GiveUpAction) {
	return s.homeGiveUp(g, g.Payload.(*req).v)
}

func (s *strategy) homeGiveUpLock(g mesh.GiveUp) (int, mesh.GiveUpAction) {
	return s.homeGiveUp(g, g.Payload.(*core.Variable))
}

// invalGiveUp handles an invalidation the transport could not deliver: a
// dead copy holder's copy died with it, so the home emulates the ack.
func (s *strategy) invalGiveUp(g mesh.GiveUp) (int, mesh.GiveUpAction) {
	if !s.m.Net.NodeDownNow(g.Dst) {
		return g.Dst, mesh.GiveUpRetry
	}
	r := g.Payload.(*req)
	s.dropCopy(r.v, g.Dst)
	s.ackWrite(r)
	return g.Dst, mesh.GiveUpDrop
}

// fetchGiveUp handles a FETCH the transport could not deliver: the owner is
// dead, so the home reclaims ownership and serves the read itself.
func (s *strategy) fetchGiveUp(g mesh.GiveUp) (int, mesh.GiveUpAction) {
	if !s.m.Net.NodeDownNow(g.Dst) {
		return g.Dst, mesh.GiveUpRetry
	}
	r := g.Payload.(*req)
	vs := vstate(r.v)
	if vs.owner == g.Dst {
		vs.owner = vs.home
		s.dropCopy(r.v, g.Dst)
		r.v.SetLocal(vs.home)
		s.m.Cache(vs.home).Insert(r.v, vs.home)
	}
	if !r.fut.Done() {
		s.replyData(r)
	}
	return g.Dst, mesh.GiveUpDrop
}
