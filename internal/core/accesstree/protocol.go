package accesstree

import (
	"math/bits"

	"diva/internal/core"
	"diva/internal/mesh"
	"diva/internal/sim"
)

// reqMsg travels along the access tree. path records the visited tree
// nodes; path[0] is the requester's leaf and the last element the node the
// message is arriving at. The same payload object is threaded through all
// hops of one transaction (the simulation equivalent of the message body);
// it is recycled onto the strategy's free list — together with its path
// buffer and future — when the transaction completes.
type reqMsg struct {
	v     *Variable
	write bool
	path  []int
	val   interface{} // write: the new value
	fut   *sim.Future
}

// The smaller protocol messages carry no struct payload at all: the
// variable rides in Msg.Payload and the (small, dense) tree-node ids are
// packed into Msg.Tag; what a multicast or a lock request has to remember
// between hops lives in the node table. No hop of the data-return,
// invalidation, ack, evict and lock flows allocates (the regression tests
// in alloc_test.go hold every transaction shape to zero).
//
//   - data hop (kindRead/WriteData): Payload = *reqMsg, Tag = path index
//     the message arrives at;
//   - invalidation: Payload = *Variable, Tag = pack(receiving node, node
//     the invalidation came from);
//   - ack: Payload = *Variable, Tag = receiving node;
//   - evict note: Payload = *Variable, Tag = pack(receiving node, evicted
//     node);
//   - lock request: Payload = *Variable, Tag = pack3(receiving node, node
//     the request came from, requesting leaf);
//   - lock token: Payload = *Variable, Tag = receiving leaf.
//
// tagShift splits the sign-free int into three node-id fields: 2^21 nodes
// on 64-bit platforms (beyond a 1024x1024 binary-decomposed mesh), 2^10 on
// 32-bit ones; newStrategy rejects larger trees up front rather than
// letting the packing silently corrupt ids.
const (
	tagShift = (bits.UintSize - 1) / 3
	tagMask  = 1<<tagShift - 1
)

func packTag(a, b int) int       { return a<<tagShift | b }
func unpackTag(t int) (a, b int) { return t >> tagShift, t & tagMask }

func packTag3(a, b, c int) int { return packTag(packTag(a, b), c) }
func unpackTag3(t int) (a, b, c int) {
	ab, c := unpackTag(t)
	a, b = unpackTag(ab)
	return a, b, c
}

// Read implements core.Strategy. The caller holds the shared transaction
// slot, so pointer states can only be extended (by concurrent readers)
// while this transaction runs.
func (s *strategy) Read(p *core.Proc, v *Variable) interface{} {
	vs := vstate(v)
	leaf := s.t.LeafOfProc[p.ID]
	st := vs.nodes.get(leaf)
	if st.member {
		// Touching the LRU only matters for bounded caches; skipping the
		// call (and the interface boxing of the key) keeps the 99%-hit
		// local read path to a few loads.
		if c := s.m.Cache(p.ID); c.Bounded() {
			c.Touch(v.ID, leaf)
		}
		return v.Data
	}
	req := s.acquireReq(v, leaf)
	s.forward(req, st.toward)
	val := req.fut.Await(p.Proc)
	s.releaseReq(req)
	return val
}

// acquireReq returns a transaction record with path = [leaf] from the
// strategy's arena (a core.TxnArena slab: every record sits next to its
// future and its path buffer, carved from per-slab companion blocks). The
// path buffer has room for the longest possible pointer chain (a full
// tree path: up to the root and down to a leaf) so the per-hop appends
// never reallocate.
func (s *strategy) acquireReq(v *Variable, leaf int) *reqMsg {
	if s.txns.Init == nil {
		pathCap := 2*s.t.MaxDepth + 1
		s.txns.Init = func(recs []reqMsg) {
			futs := make([]sim.Future, len(recs))
			paths := make([]int, len(recs)*pathCap)
			for i := range recs {
				recs[i].fut = &futs[i]
				recs[i].path = paths[i*pathCap : i*pathCap : (i+1)*pathCap]
			}
		}
	}
	req := s.txns.Acquire()
	req.v = v
	req.path = append(req.path[:0], leaf)
	*req.fut = sim.Future{}
	return req
}

// releaseReq recycles a completed transaction record. Safe only after the
// requester's Await returned: at that point no message or event references
// req anymore.
func (s *strategy) releaseReq(req *reqMsg) {
	req.v = nil
	req.write = false
	req.val = nil
	s.txns.Release(req)
}

// Write implements core.Strategy. The caller holds the exclusive slot: no
// other transaction on v is in flight.
func (s *strategy) Write(p *core.Proc, v *Variable, val interface{}) {
	vs := vstate(v)
	s.maybeRemap(vs, v)
	leaf := s.t.LeafOfProc[p.ID]
	st := vs.nodes.get(leaf)
	if st.member && st.edges == 0 {
		// Sole copy: a purely local write.
		v.Data = val
		if c := s.m.Cache(p.ID); c.Bounded() {
			c.Touch(v.ID, leaf)
		}
		return
	}
	req := s.acquireReq(v, leaf)
	req.write = true
	req.val = val
	if st.member {
		// The writer holds a copy (the common case: every write in the
		// paper's applications is preceded by a read): it is itself the
		// nearest member; invalidate everyone else directly.
		s.serveWrite(req)
	} else {
		s.forward(req, st.toward)
	}
	req.fut.Await(p.Proc)
	s.releaseReq(req)
}

// forward sends req one hop further along the pointer chain. Called at the
// node that is the current end of req.path, which is not a member; toward
// is its data pointer.
func (s *strategy) forward(req *reqMsg, toward int8) {
	vs := vstate(req.v)
	cur := req.path[len(req.path)-1]
	if toward == towardSelf {
		panic("accesstree: forwarding at a member node")
	}
	next := s.neighbor(cur, toward)
	if next == -1 {
		panic("accesstree: pointer chain ran past the root")
	}
	req.path = append(req.path, next)
	kind, size := kindReadReq, core.ReadReqBytes
	if req.write {
		kind, size = kindWriteReq, core.DataBytes(req.v.Size)
	}
	s.m.Net.SendPooled(s.procOf(vs, cur), s.procOf(vs, next), size, kind, req)
}

// onReq handles a request hop arriving at req.path's last node: serve if it
// is a member, forward otherwise.
func (s *strategy) onReq(m *mesh.Msg) {
	req := m.Payload.(*reqMsg)
	vs := vstate(req.v)
	cur := req.path[len(req.path)-1]
	s.countAccess(vs, cur)
	if st := vs.nodes.get(cur); !st.member {
		s.forward(req, st.toward)
		return
	}
	if req.write {
		s.serveWrite(req)
		return
	}
	// Member u serves the read: the copy travels back along the path.
	s.sendData(req, len(req.path)-1, s.node(vs, cur))
}

// serveWrite runs at the nearest member u (the last node of req.path): it
// starts the invalidation multicast; once all acknowledgments are in, the
// value is committed and the modified copy travels back to the writer.
func (s *strategy) serveWrite(req *reqMsg) {
	vs := vstate(req.v)
	u := req.path[len(req.path)-1]
	st := s.node(vs, u)
	edges := st.edges
	st.edges = 0
	if edges == 0 {
		s.commitWrite(vs, req)
		return
	}
	// u is a member, so its pointer leads to itself: that marks it as the
	// multicast root while the acknowledgments converge.
	st.acks = uint8(bits.OnesCount32(edges))
	vs.write = req
	s.multicastInval(vs, req.v, u, edges)
}

// commitWrite runs at the nearest member u once every other copy is gone:
// the value is committed and the modified copy travels back to the writer.
func (s *strategy) commitWrite(vs *varState, req *reqMsg) {
	req.v.Data = req.val
	if u := len(req.path) - 1; u > 0 {
		s.sendData(req, u, s.node(vs, req.path[u]))
		return
	}
	// u is the writer's leaf itself.
	u := req.path[0]
	proc := s.procOf(vs, u)
	st := s.node(vs, u)
	st.member = true
	st.toward = towardSelf
	req.v.SetLocal(proc)
	s.m.Cache(proc).Insert(req.v, u)
	req.fut.Complete(s.m.K, req.val)
}

// multicastInval sends invalidations from node u along the member edges.
func (s *strategy) multicastInval(vs *varState, v *Variable, u int, edges uint32) {
	src := s.procOf(vs, u)
	n := &s.t.Nodes[u]
	if edges&parentBit != 0 {
		s.sendInval(vs, v, src, n.Parent, u)
	}
	for i := range n.Children {
		if edges&childBit(i) != 0 {
			s.sendInval(vs, v, src, n.Children[i], u)
		}
	}
}

func (s *strategy) sendInval(vs *varState, v *Variable, srcProc, to, from int) {
	s.m.Net.SendPooledTag(srcProc, s.procOf(vs, to), core.InvalBytes, kindInval,
		packTag(to, from), v)
}

// onInval invalidates the copy at the receiving node and forwards the
// multicast into the rest of the component.
func (s *strategy) onInval(m *mesh.Msg) {
	v := m.Payload.(*Variable)
	node, from := unpackTag(m.Tag)
	vs := vstate(v)
	st := s.node(vs, node)
	if !st.member {
		panic("accesstree: invalidation reached a non-member")
	}
	forward := st.edges &^ s.edgeBit(node, from)
	st.member = false
	st.toward = s.dirTo(node, from)
	st.edges = 0
	if s.t.Nodes[node].Leaf() {
		v.ClearLocal(s.procOf(vs, node))
	}
	s.m.Cache(s.procOf(vs, node)).Remove(v.ID, node)
	if forward == 0 {
		s.sendAck(vs, v, node, from)
		return
	}
	// The acknowledgments of the subtree are owed to from, which is where
	// the pointer now leads.
	st.acks = uint8(bits.OnesCount32(forward))
	s.multicastInval(vs, v, node, forward)
}

func (s *strategy) sendAck(vs *varState, v *Variable, from, to int) {
	s.m.Net.SendPooledTag(s.procOf(vs, from), s.procOf(vs, to), core.AckBytes,
		kindAck, to, v)
}

// onAck aggregates acknowledgments back toward the multicast root.
func (s *strategy) onAck(m *mesh.Msg) {
	v := m.Payload.(*Variable)
	node := m.Tag
	vs := vstate(v)
	st := s.node(vs, node)
	if st.acks == 0 {
		panic("accesstree: stray invalidation ack")
	}
	st.acks--
	if st.acks > 0 {
		return
	}
	if st.toward != towardSelf {
		s.sendAck(vs, v, node, s.neighbor(node, st.toward))
		return
	}
	// The multicast root: every other copy is gone.
	req := vs.write
	vs.write = nil
	s.commitWrite(vs, req)
}

// sendData sends the copy one hop back along the request path, from
// path[idx], whose state st is, to path[idx-1].
func (s *strategy) sendData(req *reqMsg, idx int, st *nodeState) {
	vs := vstate(req.v)
	from, to := req.path[idx], req.path[idx-1]
	// The sender records that its neighbor is about to become a member.
	st.edges |= s.edgeBit(from, to)
	kind := kindReadData
	if req.write {
		kind = kindWriteData
	}
	s.m.Net.SendPooledTag(s.procOf(vs, from), s.procOf(vs, to),
		core.DataBytes(req.v.Size), kind, idx-1, req)
}

// onData installs a copy at the receiving path node and forwards the copy
// toward the requester; at the requester's leaf the transaction completes.
func (s *strategy) onData(m *mesh.Msg) {
	req := m.Payload.(*reqMsg)
	idx := m.Tag
	vs := vstate(req.v)
	cur := req.path[idx]
	s.countAccess(vs, cur)
	st := s.node(vs, cur)
	st.member = true
	st.toward = towardSelf
	st.edges |= s.edgeBit(cur, req.path[idx+1])
	// The insertion may evict copies, but none of this variable, which is
	// not idle: no other node is materialized, and st stays valid.
	s.m.Cache(m.Dst).Insert(req.v, cur)
	if idx == 0 {
		// path[0] is the requester's leaf — the only leaf a request path
		// can install a copy at (interior path nodes are internal).
		req.v.SetLocal(m.Dst)
		if req.write {
			req.fut.Complete(s.m.K, req.val)
		} else {
			req.fut.Complete(s.m.K, req.v.Data)
		}
		return
	}
	s.sendData(req, idx, st)
}

// countAccess bumps the remapping counter of a node (the side table only
// exists when remapping is enabled).
func (s *strategy) countAccess(vs *varState, node int) {
	if vs.remap != nil {
		vs.remap.accesses[node]++
	}
}

// edgeBit returns node's edge bit toward its tree neighbor nb.
func (s *strategy) edgeBit(node, nb int) uint32 {
	if s.t.Nodes[node].Parent == nb {
		return parentBit
	}
	if s.t.Nodes[nb].Parent != node {
		panic("accesstree: edgeBit between non-adjacent nodes")
	}
	return childBit(s.t.Nodes[nb].ChildIndex)
}

// dirTo returns the pointer value at node that leads to its neighbor nb.
func (s *strategy) dirTo(node, nb int) int8 {
	if s.t.Nodes[node].Parent == nb {
		return towardUp
	}
	if s.t.Nodes[nb].Parent != node {
		panic("accesstree: dirTo between non-adjacent nodes")
	}
	return int8(s.t.Nodes[nb].ChildIndex)
}

// neighbor returns the tree neighbor of node that pointer value dir (up or
// a child index) leads to.
func (s *strategy) neighbor(node int, dir int8) int {
	if dir == towardUp {
		return s.t.Nodes[node].Parent
	}
	return s.t.Nodes[node].Children[dir]
}

// TryEvict implements core.Evictor, the access tree's LRU replacement: a
// copy may only be dropped if the variable is idle and the copy is a leaf of
// the copy component (so the component stays connected and no data is
// lost). The one remaining component neighbor is notified with a small
// message.
func (s *strategy) TryEvict(v *Variable, node, proc int) bool {
	if v.State == nil || !v.Idle() {
		return false
	}
	vs := vstate(v)
	st := s.node(vs, node)
	if !st.member {
		return false
	}
	if bits.OnesCount32(st.edges) != 1 {
		return false // sole copy or interior component node
	}
	nb := s.edgeNeighbor(node, st.edges)
	st.member = false
	st.toward = s.dirTo(node, nb)
	st.edges = 0
	if s.t.Nodes[node].Leaf() {
		v.ClearLocal(proc)
	}
	// Clear the neighbor's edge bit immediately: if the notification were
	// only applied on delivery, two adjacent copies could each observe the
	// other as "remaining" and both evict, losing the last copy (a real
	// implementation prevents this with an eviction handshake; we model
	// the handshake's effect and charge its message below).
	s.node(vs, nb).edges &^= s.edgeBit(nb, node)
	s.m.Cache(proc).Remove(v.ID, node)
	s.m.Net.SendPooledTag(proc, s.procOf(vs, nb), core.AckBytes, kindEvict,
		packTag(nb, node), v)
	return true
}

// edgeNeighbor maps a single-bit edge mask to the neighbor node id.
func (s *strategy) edgeNeighbor(node int, edges uint32) int {
	if edges == parentBit {
		return s.t.Nodes[node].Parent
	}
	i := bits.TrailingZeros32(edges) - 1
	return s.t.Nodes[node].Children[i]
}

// onEvict clears the component edge toward a replaced copy.
func (s *strategy) onEvict(m *mesh.Msg) {
	v := m.Payload.(*Variable)
	if v.State == nil {
		return // variable freed while the notification was in flight
	}
	node, gone := unpackTag(m.Tag)
	vs := vstate(v)
	s.node(vs, node).edges &^= s.edgeBit(node, gone)
}
