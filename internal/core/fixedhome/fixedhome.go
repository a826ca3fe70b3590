// Package fixedhome implements the paper's baseline data management
// strategy: every global variable is assigned a uniformly random home
// processor that keeps track of the variable's copies, and consistency is
// maintained with the classic ownership scheme (§2, "The fixed home
// strategy"). This realizes a CC-NUMA-like concept on the mesh.
//
// At any time either one of the processors or the home (playing the role of
// the central main memory module) owns a variable:
//
//   - A read by a processor without a valid copy asks the home; if a
//     processor owns the variable, the home first fetches the current copy
//     (ownership moves back to the home), then sends a copy to the reader.
//   - A write by the owner is served locally. Any other write invalidates
//     all existing copies via the home (with acknowledgments) and makes the
//     writer the owner, holding the only copy.
//
// Since the original scheme's snoopy bus invalidation does not exist in a
// network, the home sends an explicit invalidation message to every copy
// holder.
//
// Locks are managed by a FIFO queue at the variable's home.
package fixedhome

import (
	"fmt"
	"unsafe"

	"diva/internal/core"
	"diva/internal/mesh"
	"diva/internal/sim"
	"diva/internal/xrand"
)

// Factory returns a core.Factory for the fixed home strategy.
func Factory() core.Factory {
	return func(m *core.Machine) core.Strategy { return newStrategy(m) }
}

// Message kinds.
const (
	kindReadReq = core.KindStrategyBase + iota
	kindFetch
	kindFetchData
	kindData
	kindWriteReq
	kindInval
	kindAck
	kindGrant
	kindLockReq
	kindLockGrant
	kindLockRel
	kindEvictNote
)

type strategy struct {
	m   *core.Machine
	rng *xrand.RNG
	// react mirrors the machine's reactive-recovery mode: the protocol
	// handlers tolerate the duplicate deliveries a strategy-level redirect
	// can produce (see recovery.go) instead of treating them as bugs.
	react bool
	// txns arena-allocates transaction records in slabs, each record next
	// to its future (a core.TxnArena, shared machinery with accesstree),
	// handed to reqShelf when a run drains.
	txns core.TxnArena[req]
	// states carves and recycles the per-variable records.
	states core.TxnArena[varState]
	// lockWait holds, per processor, the lock wait of the process running
	// there (see lock.go).
	lockWait []lockWaiter
	// lent is the snapshot state a fork restored from, which RestoreVar
	// builds the records of the variables the fork reaches from.
	lent *State
}

// acquireReq returns a transaction record from the arena.
func (s *strategy) acquireReq(v *core.Variable, from int) *req {
	r := s.txns.Acquire()
	r.v = v
	r.from = from
	return r
}

// initReqs points a fresh slab of transaction records at their futures.
func initReqs(recs []req, _ int) {
	futs := make([]sim.Future, len(recs))
	for i := range recs {
		recs[i].fut = &futs[i]
	}
}

// releaseReq recycles a completed transaction record, cleared of every
// reference: the arena may hand it to another machine. Safe only after the
// requester's Await returned: no message or event references it anymore.
// In reactive mode that premise fails — a redirected request can still be
// delivered (and dispatched to a handler) after the transaction completed
// through the redirect — so records are never recycled there: leaking them
// in the arena is what makes the late reference safe, and such an arena
// has no shelf.
func (s *strategy) releaseReq(r *req) {
	if s.react {
		return
	}
	r.v = nil
	r.write = false
	r.val = nil
	*r.fut = sim.Future{}
	s.txns.Release(r)
}

// reqShelf holds the transaction records of drained runs.
var reqShelf = core.NewTxnShelf[req]()

// HandOver gives the strategy's transaction records to reqShelf; the
// machine calls it when a run has drained.
func (s *strategy) HandOver() { s.txns.HandOver() }

func newStrategy(m *core.Machine) *strategy {
	s := &strategy{m: m, rng: m.RNG.Split(), lockWait: make([]lockWaiter, m.P())}
	s.txns.Init = initReqs
	net := m.Net
	net.Handle(kindReadReq, s.onReadReq)
	net.Handle(kindFetch, s.onFetch)
	net.Handle(kindFetchData, s.onFetchData)
	net.Handle(kindData, s.onData)
	net.Handle(kindWriteReq, s.onWriteReq)
	net.Handle(kindInval, s.onInval)
	net.Handle(kindAck, s.onAck)
	net.Handle(kindGrant, s.onGrant)
	net.Handle(kindLockReq, s.onLockReq)
	net.Handle(kindLockGrant, s.onLockGrant)
	net.Handle(kindLockRel, s.onLockRel)
	net.Handle(kindEvictNote, func(*mesh.Msg) {}) // directory already updated
	if net.Reactive() {
		s.react = true
		s.enableRecovery()
	} else {
		s.txns.Shelf = reqShelf
		s.txns.RecBytes = int(unsafe.Sizeof(req{}) + unsafe.Sizeof(sim.Future{}))
	}
	return s
}

func (s *strategy) Name() string { return "fixed home" }

// varState is the per-variable record: the directory lives at the home
// processor. The set of copy holders is the variable's local-copy bitmap
// (core.Variable.LocalBit/SetLocal/NextLocal) — directory and per-processor
// validity flags are one structure, kept consistent because transactions on
// one variable are serialized.
type varState struct {
	home  int
	owner int // processor id; == home when "main memory" owns it
	// write is the write transaction whose invalidations are in flight and
	// acks the number still unacknowledged; the exclusive transaction slot
	// admits one write per variable.
	write *req
	acks  int
	lock  lockState
}

// req is a read or write transaction in flight.
type req struct {
	v     *core.Variable
	from  int // requesting processor
	write bool
	val   interface{}
	fut   *sim.Future
}

func vstate(v *core.Variable) *varState { return v.State.(*varState) }

func (s *strategy) InitVar(v *core.Variable) {
	vs := s.states.Acquire()
	*vs = varState{
		home:  s.rng.Intn(s.m.P()),
		owner: v.Creator,
		lock:  freeLock,
	}
	v.State = vs
	v.SetLocal(v.Creator)
	s.m.Cache(v.Creator).Insert(v, v.Creator)
}

func (s *strategy) FreeVar(v *core.Variable) {
	if s.m.CachesBounded() {
		for h := v.NextLocal(0); h >= 0; h = v.NextLocal(h + 1) {
			s.m.Cache(h).Remove(v.ID, h)
		}
	}
	s.states.Release(vstate(v))
	v.State = nil
}

// Read implements core.Strategy (shared transaction slot held).
func (s *strategy) Read(p *core.Proc, v *core.Variable) interface{} {
	vs := vstate(v)
	if v.LocalBit(p.ID) {
		if c := s.m.Cache(p.ID); c.Bounded() {
			c.Touch(v.ID, p.ID)
		}
		return v.Data
	}
	r := s.acquireReq(v, p.ID)
	s.m.Net.SendPooled(p.ID, vs.home, core.ReadReqBytes, kindReadReq, r)
	val := r.fut.Await(p.Proc)
	s.releaseReq(r)
	return val
}

func (s *strategy) onReadReq(m *mesh.Msg) {
	r := m.Payload.(*req)
	vs := vstate(r.v)
	if s.react {
		if r.fut.Done() {
			return // late duplicate of a completed transaction
		}
		if m.Dst != vs.home {
			// The variable failed over while this request was in flight:
			// the old home forwards it to the current one.
			s.m.Net.SendPooled(m.Dst, vs.home, m.Size, m.Kind, r)
			return
		}
	}
	if r.v.LocalBit(vs.home) || vs.owner == vs.home {
		s.replyData(r)
		return
	}
	// A processor owns the variable: fetch the copy; ownership moves back
	// to the home ("a read access issued by another processor moves the
	// ownership back to the main memory").
	s.m.Net.SendPooled(vs.home, vs.owner, core.HeaderBytes, kindFetch, r)
}

func (s *strategy) onFetch(m *mesh.Msg) {
	r := m.Payload.(*req)
	vs := vstate(r.v)
	if s.react && r.fut.Done() {
		return // stale fetch: a give-up already answered this read
	}
	// The owner keeps its copy valid; the home becomes a holder too. When
	// ownership moved while this fetch was in flight (a concurrent read's
	// fetch completed first, or a give-up reclaimed a dead owner), vs.owner
	// already points at the home and the data hop is home-local — exactly
	// how the oracle mode serves fetch pile-ups.
	s.m.Net.SendPooled(vs.owner, vs.home, core.DataBytes(r.v.Size), kindFetchData, r)
}

func (s *strategy) onFetchData(m *mesh.Msg) {
	r := m.Payload.(*req)
	vs := vstate(r.v)
	vs.owner = vs.home
	r.v.SetLocal(vs.home)
	s.m.Cache(vs.home).Insert(r.v, vs.home)
	s.replyData(r)
}

// replyData sends the value from the home to the reader.
func (s *strategy) replyData(r *req) {
	vs := vstate(r.v)
	s.m.Net.SendPooled(vs.home, r.from, core.DataBytes(r.v.Size), kindData, r)
}

func (s *strategy) onData(m *mesh.Msg) {
	r := m.Payload.(*req)
	if s.react && r.fut.Done() {
		return // duplicate reply via a redirected request
	}
	r.v.SetLocal(r.from)
	s.m.Cache(r.from).Insert(r.v, r.from)
	r.fut.Complete(s.m.K, r.v.Data)
}

// Write implements core.Strategy (exclusive transaction slot held).
func (s *strategy) Write(p *core.Proc, v *core.Variable, val interface{}) {
	vs := vstate(v)
	if vs.owner == p.ID {
		// "Write accesses of the owner can be served locally."
		v.Data = val
		if c := s.m.Cache(p.ID); c.Bounded() {
			c.Touch(v.ID, p.ID)
		}
		return
	}
	r := s.acquireReq(v, p.ID)
	r.write = true
	r.val = val
	s.m.Net.SendPooled(p.ID, vs.home, core.InvalBytes, kindWriteReq, r)
	r.fut.Await(p.Proc)
	s.releaseReq(r)
}

func (s *strategy) onWriteReq(m *mesh.Msg) {
	r := m.Payload.(*req)
	vs := vstate(r.v)
	if s.react {
		if r.fut.Done() || vs.write == r {
			return // late duplicate: done, or its invalidations are in flight
		}
		if m.Dst != vs.home {
			s.m.Net.SendPooled(m.Dst, vs.home, m.Size, m.Kind, r)
			return
		}
	}
	// Invalidate every copy but the writer's, in processor order. The
	// write is pending before the first send: an invalidation to the home
	// itself is acknowledged through the same bookkeeping.
	vs.write = r
	for h := r.v.NextLocal(0); h >= 0; h = r.v.NextLocal(h + 1) {
		if h != r.from {
			vs.acks++
			s.m.Net.SendPooled(vs.home, h, core.InvalBytes, kindInval, r)
		}
	}
	if vs.acks == 0 {
		vs.write = nil
		s.finishWrite(r)
	}
}

func (s *strategy) onInval(m *mesh.Msg) {
	r := m.Payload.(*req)
	s.m.Cache(m.Dst).Remove(r.v.ID, m.Dst)
	s.m.Net.SendPooled(m.Dst, vstate(r.v).home, core.AckBytes, kindAck, r)
}

func (s *strategy) onAck(m *mesh.Msg) {
	r := m.Payload.(*req)
	if !s.ackWrite(r) {
		if s.react {
			// A real ack racing an emulated one (invalGiveUp), or the ack
			// of an invalidation wave a redirect already completed.
			return
		}
		panic("fixedhome: stray invalidation ack")
	}
}

// ackWrite counts one acknowledgment (real or emulated) of r's invalidation
// wave and finishes the write with the last one. It reports false when r is
// not the write in flight.
func (s *strategy) ackWrite(r *req) bool {
	vs := vstate(r.v)
	if vs.write != r {
		return false
	}
	vs.acks--
	if vs.acks == 0 {
		vs.write = nil
		s.finishWrite(r)
	}
	return true
}

// finishWrite installs the writer as owner and sole holder and grants the
// write.
func (s *strategy) finishWrite(r *req) {
	vs := vstate(r.v)
	vs.owner = r.from
	r.v.ClearAllLocal()
	r.v.SetLocal(r.from)
	s.m.Net.SendPooled(vs.home, r.from, core.GrantBytes, kindGrant, r)
}

func (s *strategy) onGrant(m *mesh.Msg) {
	r := m.Payload.(*req)
	if s.react && r.fut.Done() {
		return // duplicate grant via a redirected request
	}
	r.v.Data = r.val
	s.m.Cache(r.from).Insert(r.v, r.from)
	r.fut.Complete(s.m.K, nil)
}

// TryEvict implements core.Evictor. Fixed-home copies may always be dropped
// (except the owner's, which holds the only current value), with a small
// notification to the home directory.
func (s *strategy) TryEvict(v *core.Variable, _, proc int) bool {
	if v.State == nil || !v.Idle() {
		return false
	}
	vs := vstate(v)
	if vs.owner == proc || vs.home == proc {
		return false // the owner's copy is the only current one
	}
	if !v.LocalBit(proc) {
		return false
	}
	v.ClearLocal(proc)
	s.m.Cache(proc).Remove(v.ID, proc)
	// Notify the home so the directory stays exact (a real implementation
	// may also use lazy directory cleaning; the message keeps congestion
	// accounting honest).
	s.m.Net.SendPooled(proc, vs.home, core.AckBytes, kindEvictNote, nil)
	return true
}

// String implements fmt.Stringer for debugging.
func (s *strategy) String() string { return fmt.Sprintf("fixedhome(P=%d)", s.m.P()) }
