package core

import (
	"math"

	"diva/internal/mesh"
	"diva/internal/sim"
)

// barrier implements the library's barrier synchronization (§2,
// "synchronization mechanisms"): arrivals are combined up the decomposition
// tree and the release is multicast down it, so no node ever handles more
// than its tree degree of messages. The same mechanism doubles as a global
// all-reduce (used, e.g., for the Barnes-Hut bounding-box phase).
//
// The barrier tree is the machine's decomposition tree under the modular
// embedding with one randomly placed root, chosen at machine construction.
//
// The release direction is batched when it is provably exact: if the
// kernel is quiescent when the root completes (every process parked in the
// barrier, nothing else in flight), the whole downward multicast is
// speculatively replayed inline inside the root-completion event instead
// of cascading ~2P messages (each two kernel events plus a handler
// dispatch) through the kernel queue. The replay performs the exact same
// network charging (send startups, link occupancy, congestion counters,
// send stats, receive startups) in the exact order the kernel would have —
// a local (time, seq) min-heap mirrors the queue's tie-breaking — and
// computes every leaf's precise release time; one kernel event thus
// releases all leaves of an epoch, and the only queue traffic left is the
// per-leaf process wakeup.
//
// Exactness is enforced, not assumed: a process released early in the
// epoch starts computing — and sending — while the release is still
// propagating to other subtrees, and those sends contend for the CPUs and
// links the remaining release hops charge. The replay therefore journals
// every charge (Network.InlineBegin) and aborts the moment a charge could
// have interleaved with an already-released process: any fan-out strictly
// after the earliest wake-up (links are touchable by a send immediately),
// or any arrival charge after a wake-up on the same processor or late
// enough for a released process's first message to have reached it
// (startup + one hop). On abort the journal restores the network state
// bit-exactly and the release falls back to the plain message cascade,
// which is exact by construction. The batch therefore commits only when
// the release provably finishes before any released process could touch
// shared state — tight-wake-spread epochs; with the GCel's 100us
// startups the serialized fan-outs usually spread the wakes enough that
// the cascade path runs instead (see PERF.md for measured hit rates).
type barrier struct {
	m   *Machine
	pos []int32 // embedding of every tree node: the simulating processor (shared, Plan.PosTable)

	waiting []*sim.Future // per processor: outstanding completion

	// arrivals holds each tree node's partial combine, made at the
	// machine's first arrival; open counts the nodes holding one. A node
	// gathers one epoch at a time: it completes before its parent, the
	// root before any release, and no process enters the next epoch before
	// it is released. combine is the reduction of the epoch being gathered
	// (BarrierReduce requires the same one on every process).
	arrivals []arrival
	open     int
	combine  func(a, b interface{}) interface{}

	// relHeap is the reusable frontier heap of the batched release replay,
	// wakeBuf its deferred leaf wake-ups and wokenAt the per-processor wake
	// times of the epoch being replayed (+Inf = not yet released).
	relHeap []relEvent
	wakeBuf []relWake
	wokenAt []sim.Time

	// batched/cascaded count release epochs by path; aborted counts the
	// cascaded epochs whose speculative replay started and was rolled
	// back by the exactness gate (for tests and PERF.md).
	batched  uint64
	cascaded uint64
	aborted  uint64
	// noBatch forces the cascade path: set by tests, and always on a
	// reactive-mode machine — the batched replay charges sends through the
	// network's hold-free inline path, which has no transport (no channel
	// sequences, no acks) and would panic on a dropped hop. The cascade
	// sends real messages, which the reactive transport covers like any
	// other traffic.
	noBatch bool
}

// arrival is one tree node's partial combine: n arrivals so far, their
// combined value and its payload size. The messages carry no record: an
// arrival or a release names its receiving tree node in Msg.Tag and its
// value in Msg.Payload, and the value's size is Msg.Size less BarrierBytes.
type arrival struct {
	n, size int32
	val     interface{}
}

func newBarrier(m *Machine) *barrier {
	b := &barrier{
		m:       m,
		waiting: make([]*sim.Future, m.P()),
	}
	b.noBatch = m.Net.Reactive()
	b.pos = m.Plan.PosTable(m.Tree.RandomRoot(m.RNG))
	b.wokenAt = make([]sim.Time, m.P())
	for i := range b.wokenAt {
		b.wokenAt[i] = math.Inf(1)
	}
	m.Net.Handle(KindBarrierArrive, b.onArrive)
	m.Net.Handle(KindBarrierRelease, b.onRelease)
	return b
}

// proc returns the processor simulating tree node n.
func (b *barrier) proc(n int) int { return int(b.pos[n]) }

// wait enters the barrier from process p, optionally contributing a
// reduction value.
func (b *barrier) wait(p *Proc, val interface{}, combine func(a, b interface{}) interface{}, size int) interface{} {
	if b.m.P() == 1 {
		return val
	}
	if b.waiting[p.ID] != nil {
		panic("core: process entered barrier twice")
	}
	f := p.Park()
	b.waiting[p.ID] = f
	b.combine = combine
	parent := b.m.Tree.Nodes[b.m.Tree.LeafOfProc[p.ID]].Parent
	b.m.Net.SendPooledTag(p.ID, b.proc(parent), BarrierBytes+size, KindBarrierArrive, parent, val)
	return f.Await(p.Proc)
}

func (b *barrier) onArrive(m *mesh.Msg) {
	if b.arrivals == nil {
		b.arrivals = make([]arrival, len(b.m.Tree.Nodes))
	}
	n := m.Tag
	a := &b.arrivals[n]
	if a.n == 0 {
		a.val, a.size = m.Payload, int32(m.Size-BarrierBytes)
		b.open++
	} else if b.combine != nil {
		a.val = b.combine(a.val, m.Payload)
	}
	a.n++
	node := &b.m.Tree.Nodes[n]
	if int(a.n) < len(node.Children) {
		return
	}
	val, size := a.val, int(a.size)
	*a = arrival{}
	b.open--
	if node.Parent == -1 {
		// Root complete: release downward.
		b.release(n, val, size)
	} else {
		// Forward the combined arrival upward.
		b.m.Net.SendPooledTag(b.proc(n), b.proc(node.Parent), BarrierBytes+size,
			KindBarrierArrive, node.Parent, val)
	}
}

// relEvent is one in-flight release message of the batched replay: the
// arrival stage charges the receive startup, the ready stage runs the
// handler effect (fan out further, or wake a leaf). (t, seq) mirrors the
// kernel queue's (time, schedule order) tie-breaking exactly.
type relEvent struct {
	t      sim.Time
	seq    int32
	node   int32
	arrive bool
}

func relBefore(a, b *relEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// release starts the downward multicast from tree node n at the current
// simulated time: batched when the kernel is quiescent and the speculative
// replay proves itself exact, as a per-hop message cascade otherwise.
func (b *barrier) release(n int, val interface{}, size int) {
	if !b.noBatch && b.m.K.Pending() == 0 && b.releaseBatched(n, val, size) {
		b.batched++
		return
	}
	b.cascaded++
	b.releaseCascade(n, val, size)
}

// releaseCascade forwards the release from tree node n to all its children
// as real messages (the exact-by-construction fallback).
func (b *barrier) releaseCascade(n int, val interface{}, size int) {
	src := b.proc(n)
	for _, child := range b.m.Tree.Nodes[n].Children {
		// A leaf's region is its single processor, so the embedding pins
		// the leaf to the processor whose process it releases.
		b.m.Net.SendPooledTag(src, b.proc(child), BarrierBytes+size, KindBarrierRelease, child, val)
	}
}

// relWake is a leaf release computed by the replay, deferred until the
// whole replay commits (an abort must not have woken anyone).
type relWake struct {
	proc int
	t    sim.Time
}

// releaseBatched speculatively replays the whole release multicast inline:
// every hop's send and receive charging happens through the network's
// journaled Inline helpers in global (time, schedule order) order, and on
// commit each leaf's future completes with a wakeup scheduled at its exact
// release time. It reports false — with all charges reverted — when a
// charge could have interleaved with an already-released process (see the
// type comment for the exactness argument).
func (b *barrier) releaseBatched(root int, val interface{}, size int) bool {
	tr := b.m.Tree
	nw := b.m.Net
	// The kernel's clock is the replay's origin.
	k := b.m.K
	h := b.relHeap[:0]
	wakes := b.wakeBuf[:0]
	minWoken := math.Inf(1)
	seq := int32(0)
	push := func(e relEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) >> 1
			if !relBefore(&h[i], &h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	fan := func(n int, now sim.Time) {
		src := b.proc(n)
		for _, child := range tr.Nodes[n].Children {
			arrive := nw.InlineSendAt(now, src, b.proc(child), BarrierBytes+size,
				KindBarrierRelease)
			push(relEvent{t: arrive, seq: seq, node: int32(child), arrive: true})
			seq++
		}
	}
	abort := func() bool {
		b.aborted++
		nw.InlineAbort()
		for _, w := range wakes {
			b.wokenAt[w.proc] = math.Inf(1)
		}
		b.relHeap, b.wakeBuf = h[:0], wakes[:0]
		return false
	}
	nw.InlineBegin()
	fan(root, k.Now())
	for len(h) > 0 {
		e := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && relBefore(&h[c+1], &h[c]) {
				c++
			}
			if !relBefore(&h[c], &h[i]) {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		if e.arrive {
			dst := b.proc(int(e.node))
			// A released process may charge dst's CPU before this arrival:
			// directly once dst's own process woke, or via a message — which
			// cannot reach dst earlier than the sender's wake time plus one
			// send startup and its shortest route (deterministic routes are
			// shortest paths, so the bound survives relaying by the triangle
			// inequality; the transmission time > 0 keeps ties safe).
			if b.wokenAt[dst] < e.t {
				return abort()
			}
			// Fast accept: every sender's bound is at least the earliest
			// wake plus one startup and one hop (Dist >= 1 for a different
			// processor), so arrivals inside that window — the common case
			// of a committing epoch — skip the per-wake scan; this keeps
			// the gate's cost linear instead of O(arrivals x wakes).
			if e.t > minWoken+nw.P.StartupSendUS+nw.P.HopLatencyUS {
				for _, w := range wakes {
					if w.proc != dst &&
						w.t+nw.P.StartupSendUS+nw.P.HopLatencyUS*float64(b.m.Topo.Dist(w.proc, dst)) < e.t {
						return abort()
					}
				}
			}
			ready := nw.InlineRecvAt(dst, e.t)
			push(relEvent{t: ready, seq: seq, node: e.node})
			seq++
			continue
		}
		if node := &tr.Nodes[e.node]; node.Leaf() {
			proc := b.proc(int(e.node))
			wakes = append(wakes, relWake{proc: proc, t: e.t})
			b.wokenAt[proc] = e.t
			if e.t < minWoken {
				minWoken = e.t
			}
		} else {
			if minWoken < e.t {
				return abort()
			}
			fan(int(e.node), e.t)
		}
	}
	nw.InlineCommit()
	for _, w := range wakes {
		b.wokenAt[w.proc] = math.Inf(1)
		f := b.waiting[w.proc]
		b.waiting[w.proc] = nil
		f.CompleteAt(k, w.t, val)
	}
	b.relHeap, b.wakeBuf = h[:0], wakes[:0]
	return true
}

func (b *barrier) onRelease(m *mesh.Msg) {
	n := m.Tag
	if b.m.Tree.Nodes[n].Leaf() {
		proc := b.proc(n)
		f := b.waiting[proc]
		b.waiting[proc] = nil
		f.Complete(b.m.K, m.Payload)
	} else {
		b.releaseCascade(n, m.Payload, m.Size-BarrierBytes)
	}
}
