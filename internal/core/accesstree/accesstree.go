// Package accesstree implements the access tree data management strategy of
// the paper (§2) — the primary contribution evaluated there.
//
// For each global variable, an access tree (a copy of the hierarchical mesh
// decomposition tree) is embedded into the mesh: the root is mapped to a
// uniformly random processor and every other node is derived from its
// parent by the paper's modular rule (decomp.EmbedChild), the "practical
// improvement" over the fully random embedding of the theoretical analysis
// (which remains available for the ablation study).
//
// On every access tree a simple caching protocol runs. The nodes holding a
// copy of a variable always form a connected component of the tree:
//
//   - Read: the requesting leaf sends a request along tree edges to the
//     nearest node holding a copy; the copy travels back along the same
//     path and every node on the path keeps a copy.
//   - Write: the new value travels to the nearest copy-holding node u; u
//     invalidates every other copy via a multicast along the component's
//     tree edges (acknowledged), then the modified copy travels back to
//     the writer, again leaving copies on the path.
//
// All communication — including the invalidation multicast and the
// lock/arrow traffic — follows the branches of the access tree; every tree
// hop is a real message between the processors simulating the two tree
// nodes (the source of the startup costs the paper analyzes).
//
// Copies are located with directional pointers ("data tracking"): every
// tree node knows the direction (parent or a child) of the copy component.
// Pointers are only materialized once they deviate from the initial
// configuration, in which all pointers lead to the creator's leaf: a
// variable's node table (nodetable.go) holds the root-to-creator path and
// the nodes its protocol has touched since, and every other node reads as
// the one state at rest, both pointers leading up.
package accesstree

import (
	"fmt"

	"diva/internal/core"
	"diva/internal/decomp"
	"diva/internal/mesh"
	"diva/internal/xrand"
)

// Options tunes the strategy.
type Options struct {
	// RandomEmbedding switches from the paper's modular embedding to the
	// fully random embedding of the theoretical analysis (ablation D1).
	RandomEmbedding bool
	// RemapThreshold enables the remapping step of the theoretical
	// strategy that the paper's implementation omits ("the original
	// description of the access tree strategy intends that the embedding
	// of an access tree node is changed when too many accesses are
	// directed to the same node"): after RemapThreshold accesses, a tree
	// node is re-embedded at a fresh random position of its submesh, its
	// state migrates there (one data-sized message if it holds a copy,
	// one control message otherwise), and its tree neighbors are notified
	// of the new address (one control message each). Requires
	// RandomEmbedding (under the modular embedding, positions are derived
	// from the parent and cannot move independently). 0 disables
	// remapping, reproducing the paper's implementation (decision D3).
	RemapThreshold int
}

// Factory returns a core.Factory for the access tree strategy with default
// options. The tree arity is taken from the machine's decomposition spec.
func Factory() core.Factory { return FactoryOpts(Options{}) }

// FactoryOpts is Factory with explicit options.
func FactoryOpts(o Options) core.Factory {
	if o.RemapThreshold > 0 && !o.RandomEmbedding {
		panic("accesstree: RemapThreshold requires RandomEmbedding")
	}
	return func(m *core.Machine) core.Strategy { return newStrategy(m, o) }
}

// Message kinds.
const (
	kindReadReq   = core.KindStrategyBase + iota // request hop toward a copy
	kindReadData                                 // copy hop back to the reader
	kindWriteReq                                 // write request hop (carries the new value)
	kindWriteData                                // modified copy hop back to the writer
	kindInval                                    // invalidation hop
	kindAck                                      // invalidation acknowledgment hop
	kindEvict                                    // replacement notification
	kindLockReq                                  // arrow-protocol lock request hop
	kindLockToken                                // lock token transfer
	kindRemapMove                                // node migration (remapping, D3)
	kindRemapNote                                // new-address notification
)

// Directional pointer values; values >= 0 name a child index.
const (
	towardUp   int8 = -1
	towardSelf int8 = -2
)

// maxChildren bounds the arity of a tree node: one edge bit per neighbor in
// nodeState.edges, which also keeps child indices inside an int8 pointer
// and an ack count inside a uint8.
const maxChildren = 31

type strategy struct {
	m    *core.Machine
	t    *decomp.Tree
	rng  *xrand.RNG
	opts Options
	// remaps counts node migrations across all variables (ablation D3).
	remaps int
	// txns arena-allocates transaction records (reqMsg + path buffer +
	// future) in slabs. The simulation is single-threaded, so plain slices
	// suffice.
	txns core.TxnArena[reqMsg]
	// states carves and recycles the per-variable records, tables their
	// node tables.
	states core.TxnArena[varState]
	tables nodeTables
	// lockers holds, per processor, the lock wait of the process running
	// there (see lock.go).
	lockers []locker
}

func newStrategy(m *core.Machine, o Options) *strategy {
	// Up to three packed node ids must fit the platform int (tagShift bits
	// each). Reject oversized trees up front rather than corrupting ids
	// silently.
	if limit := 1 << tagShift; len(m.Tree.Nodes) > limit {
		panic(fmt.Sprintf("accesstree: tree has %d nodes, exceeding the %d-node Msg.Tag packing limit",
			len(m.Tree.Nodes), limit))
	}
	for i := range m.Tree.Nodes {
		if n := len(m.Tree.Nodes[i].Children); n > maxChildren {
			panic(fmt.Sprintf("accesstree: tree node %d has %d children, exceeding the %d-edge node state",
				i, n, maxChildren))
		}
	}
	s := &strategy{m: m, t: m.Tree, rng: m.RNG.Split(), opts: o, lockers: make([]locker, m.P()),
		tables: newNodeTables(len(m.Tree.Nodes))}
	for i := range s.lockers {
		s.lockers[i].next = -1
	}
	net := m.Net
	net.Handle(kindReadReq, s.onReq)
	net.Handle(kindReadData, s.onData)
	net.Handle(kindWriteReq, s.onReq)
	net.Handle(kindWriteData, s.onData)
	net.Handle(kindInval, s.onInval)
	net.Handle(kindAck, s.onAck)
	net.Handle(kindEvict, s.onEvict)
	net.Handle(kindLockReq, s.onLockReq)
	net.Handle(kindLockToken, s.onLockToken)
	net.Handle(kindRemapMove, s.onRemapMove)
	net.Handle(kindRemapNote, s.onRemapNote)
	if net.Reactive() {
		// Reactive recovery: the tree embedding is fixed, so an
		// undeliverable hop has no alternative destination — the message
		// is re-issued on the same channel with a fresh detection cycle.
		// By then the mesh has re-embedded its spanning forest around the
		// failure (routes recompute lazily per topology epoch), so the
		// re-issued hop rides the re-routed path; the transport keeps the
		// channel sequence, so a late duplicate of the original delivery
		// is still deduplicated. Every protocol kind recovers this way.
		reissue := func(g *mesh.GiveUp) (int, mesh.GiveUpAction) {
			return g.Dst, mesh.GiveUpReissue
		}
		for _, k := range []uint8{
			kindReadReq, kindReadData, kindWriteReq, kindWriteData,
			kindInval, kindAck, kindEvict, kindLockReq, kindLockToken,
			kindRemapMove, kindRemapNote,
		} {
			net.OnGiveUp(k, reissue)
		}
	}
	return s
}

func (s *strategy) Name() string {
	name := fmt.Sprintf("%s access tree", s.t.Spec.Name())
	if s.opts.RandomEmbedding {
		name += " (random embedding)"
	}
	return name
}

// varState is the per-variable protocol state.
type varState struct {
	rootPos int    // processor the tree root is embedded at
	seed    uint64 // for the random-embedding ablation
	creator int    // processor that created the variable
	// posTab maps tree node id to simulating processor under the modular
	// embedding: the positions are a pure function of the root's processor,
	// so every variable rooted there — on any machine of the plan — shares
	// one table (core.Plan.PosTable) and posOf is a slice lookup instead of
	// an O(depth) arithmetic walk. nil for the random embedding.
	posTab []int32
	// nodes holds the tree nodes not at rest (nodetable.go): read them
	// with nodes.get, write them through strategy.node.
	nodes nodeTable
	// write is the write transaction whose invalidation multicast is in
	// flight: the exclusive transaction slot admits one write per variable,
	// so its continuation needs no more than this pointer.
	write *reqMsg
	lock  lockState
	// remap is the state of the optional remapping (remap.go): nil unless
	// Options.RemapThreshold > 0.
	remap *remapState
}

const parentBit = uint32(1)

func childBit(i int) uint32 { return 1 << uint(i+1) }

// state returns the variable's strategy state.
func vstate(v *core.Variable) *varState { return v.State.(*varState) }

// initNodes builds the node table of the initial configuration: every data
// pointer and every lock arrow leads toward the creator's leaf, which holds
// the only copy and the lock token. Off the root-to-leaf path that is the
// state at rest, so only the path is stored.
func (s *strategy) initNodes(vs *varState) {
	leaf := s.t.LeafOfProc[vs.creator]
	depth := 0
	for id := leaf; id != s.t.Root(); id = s.t.Nodes[id].Parent {
		depth++
	}
	vs.nodes = s.tables.newTable(depth + 1)
	*s.node(vs, leaf) = nodeState{member: true, toward: towardSelf, arrow: towardSelf}
	for id := leaf; id != s.t.Root(); {
		n := &s.t.Nodes[id]
		id = n.Parent
		st := s.node(vs, id)
		st.toward, st.arrow = int8(n.ChildIndex), int8(n.ChildIndex)
	}
}

// node returns node id of the variable for writing (nodeTables.ref).
func (s *strategy) node(vs *varState, id int) *nodeState {
	return s.tables.ref(&vs.nodes, id)
}

// posOf computes the processor simulating a tree node under the
// variable's embedding: a table lookup for the modular embedding (the
// positions are a pure function of the root placement, precomputed once
// per root processor and shared by all its variables), a pure hash for the
// random embedding. No messages and no allocation either way: the
// embedding is globally known given the variable's root placement.
func (s *strategy) posOf(vs *varState, id int) int {
	if s.opts.RandomEmbedding {
		if vs.remap != nil {
			if pos, ok := vs.remap.overrides[id]; ok {
				return pos
			}
		}
		return s.t.RandomPos(vs.seed, id)
	}
	return int(vs.posTab[id])
}

// procOf returns the processor simulating tree node id.
func (s *strategy) procOf(vs *varState, id int) int {
	return s.posOf(vs, id)
}

func (s *strategy) InitVar(v *Variable) {
	vs := s.states.Acquire()
	*vs = varState{
		rootPos: s.t.RandomRoot(s.rng),
		seed:    s.rng.Uint64(),
		creator: v.Creator,
		lock:    restingLock(s.t.LeafOfProc[v.Creator]),
	}
	if !s.opts.RandomEmbedding {
		vs.posTab = s.m.Plan.PosTable(vs.rootPos)
	}
	s.initNodes(vs)
	if s.opts.RemapThreshold > 0 {
		vs.remap = &remapState{accesses: make([]uint32, len(s.t.Nodes))}
	}
	v.State = vs
	v.SetLocal(v.Creator)
	s.m.Cache(v.Creator).Insert(v, s.t.LeafOfProc[v.Creator])
}

// Variable aliases core.Variable for readability.
type Variable = core.Variable

func (s *strategy) FreeVar(v *Variable) {
	vs := vstate(v)
	if s.m.CachesBounded() {
		// Unbounded caches track nothing, so the member scan (Barnes-Hut
		// frees one variable per tree cell per step) only runs when there
		// are cache entries to drop.
		vs.nodes.each(func(id int, st nodeState) {
			if st.member {
				s.m.Cache(s.procOf(vs, id)).Remove(v.ID, id)
			}
		})
	}
	s.tables.put(&vs.nodes)
	*vs = varState{}
	s.states.Release(vs)
	v.State = nil
}
