package accesstree

import (
	"diva/internal/core"
	"diva/internal/mesh"
)

// This file implements the remapping step of the theoretical access tree
// strategy, which the paper's implementation deliberately omits ("we omit
// this remapping as we believe that the constant overhead induced by this
// procedure will not be retained in practice", §2). Omitting it is design
// decision D3: remapping is off unless an ablation asks for it. With Options.RemapThreshold > 0, a tree node that has
// handled that many protocol messages is moved to a fresh random position
// in its submesh, restoring the granularity of the random experiments in
// the competitive analysis.
//
// The migration is paid for: the node's copy (or just its pointer state)
// travels to the new processor, and the tree neighbors are notified of the
// new address. Remapping executes at the start of a write transaction,
// when the exclusive transaction slot guarantees no data messages for the
// variable are in flight. Lock traffic may still be in flight; a real
// implementation forwards those few messages from the old address, which
// we approximate by delivering them against the logical node state.

// remapState is one variable's remapping state, dense by tree node:
// accesses counts the protocol messages handled at each node and moved
// holds 1 + the processor a remapped node moved to (0: not moved).
type remapState struct {
	accesses []uint32
	moved    []int32
}

// maybeRemap migrates every over-accessed node of v. Called with the
// exclusive transaction slot held.
func (s *strategy) maybeRemap(vs *varState, v *Variable) {
	if s.opts.RemapThreshold <= 0 {
		return
	}
	// The dense counter table iterates in id order, which keeps the RNG
	// stream deterministic without sorting.
	for id, n := range vs.remap.accesses {
		if int(n) >= s.opts.RemapThreshold {
			s.remapNode(vs, v, id)
		}
	}
}

// remapNode moves one tree node to a fresh random position.
func (s *strategy) remapNode(vs *varState, v *Variable, id int) {
	member := vs.nodes.get(id).member
	r := vs.remap
	r.accesses[id] = 0
	oldProc := s.posOf(vs, id)
	region := s.t.Nodes[id].Region
	if region.Single() {
		return // a leaf is pinned to its processor
	}
	newProc := region.Draw(s.rng)
	r.moved[id] = int32(newProc) + 1
	s.remaps++

	// The node's state travels: a full copy if it is a member, pointer
	// state otherwise.
	size := core.ReadReqBytes
	if member {
		size = core.DataBytes(v.Size)
		s.m.Cache(oldProc).Remove(v.ID, id)
		s.m.Cache(newProc).Insert(v, id)
	}
	s.m.Net.SendPooled(oldProc, newProc, size, kindRemapMove, nil)
	// Notify the tree neighbors of the new address, parent first.
	n := &s.t.Nodes[id]
	if n.Parent != -1 {
		s.m.Net.SendPooled(newProc, s.procOf(vs, n.Parent), core.InvalBytes, kindRemapNote, nil)
	}
	for _, c := range n.Children {
		s.m.Net.SendPooled(newProc, s.procOf(vs, c), core.InvalBytes, kindRemapNote, nil)
	}
}

// TotalRemaps reports the machine-wide number of node migrations, if the
// strategy is an access tree (0 otherwise).
func TotalRemaps(s core.Strategy) int {
	if st, ok := s.(*strategy); ok {
		return st.remaps
	}
	return 0
}

func (s *strategy) onRemapMove(m *mesh.Msg) {
	// State migration is applied at send time (the simulator holds the
	// authoritative state); the message exists for congestion and timing.
}

func (s *strategy) onRemapNote(m *mesh.Msg) {
	// Address update at a neighbor; positions are read from the moved
	// table, so nothing to do beyond the accounted delivery.
}
