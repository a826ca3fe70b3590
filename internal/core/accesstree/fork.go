package accesstree

import (
	"encoding/binary"
	"fmt"
	"slices"

	"diva/internal/core"
	"diva/internal/wire"
	"diva/internal/xrand"
)

// core.Forker implementation: capture and restore of the access tree
// strategy's state for machine snapshot/fork. Captured per variable: the
// embedding (root position / ablation seed), the node table, the leaf the
// lock token rests at, and the remap counters and moved positions. A table
// is kept as its nodes not at rest, ids ascending, whether captured live or
// read from a file, so either saves to the same bytes. A fork lends all of
// it: RestoreVar builds a variable's record and a node table of its own
// (nodeTables.restore) when the fork first reaches the variable. The
// captured state is never written, so forks of one snapshot may run at
// once. Arenas (no live transactions at quiescence), recycled tables and
// the embedding tables (a pure function of the tree, shared through
// core.Plan) are not captured.

// State is the strategy's captured state (core.StratState): forks restore
// from it, and a snapshot file carries it — the exported fields and the
// table sizes in the state section (AppendState), the node tables as a raw
// section (AppendTables).
type State struct {
	RNG    xrand.State
	Remaps int
	Vars   []VarState // indexed by VarID; the zero value marks a freed variable
	// Accesses and Moved hold each variable's remapState by id, a word a
	// tree node; nil unless the strategy remaps.
	Accesses []uint32
	Moved    []int32
	// ids and nodes hold every live variable's table, variable by
	// variable: its nodes not at rest, ids ascending (VarState.at).
	// treeNodes is the tree's size.
	ids       []uint16
	nodes     []nodeState
	treeNodes int
}

// VarState is one quiescent variable. Of its lock only the arrows (in the
// node table) and the token's resting leaf persist: queue, waiters and
// holder must be empty/free at quiescence. Freed variables leave zero
// values in State.Vars. The fields are as narrow as their ranges (the tree
// has at most 1<<tagShift nodes); the creator is core.VarState's.
type VarState struct {
	Seed    uint64
	RootPos int32
	TokenAt int32 // leaf the free lock token rests at
	// count is how many nodes of the table are not at rest, 0 for a freed
	// variable (a live table holds the root, whose data pointer leads
	// down), and at where its entries start in State.ids and State.nodes.
	count uint32
	at    int32
}

// AppendState implements core.StratState: the exported fields and each
// variable's table size.
func (st *State) AppendState(b []byte) []byte {
	b = st.RNG.Append(b)
	b = wire.AppendInt(b, st.Remaps)
	b = wire.AppendSlice(b, st.Vars, appendVarState)
	b = wire.AppendSlice(b, st.Accesses, wire.AppendUint32)
	return wire.AppendSlice(b, st.Moved, wire.AppendInt32)
}

// ReadState reads what AppendState wrote, which must hold vars variables:
// checked before they are allocated, a freed one being a byte of the file.
func ReadState(r *wire.Reader, vars int) *State {
	st := &State{RNG: xrand.ReadState(r), Remaps: r.Int()}
	if peek := *r; peek.Len(1) != vars {
		r.Fail("snapshot variable count is not the machine's %d", vars)
		return st
	}
	st.Vars = wire.ReadSlice(r, 1, readVarState)
	st.Accesses = wire.ReadSlice(r, 1, (*wire.Reader).Uint32)
	st.Moved = wire.ReadSlice(r, 1, (*wire.Reader).Int32)
	return st
}

// A freed variable is one zero byte: its table size.
func appendVarState(b []byte, v VarState) []byte {
	if b = wire.AppendUint32(b, v.count); v.count == 0 {
		return b
	}
	return wire.AppendInt32(wire.AppendUint64(wire.AppendInt32(b, v.RootPos), v.Seed), v.TokenAt)
}

func readVarState(r *wire.Reader) VarState {
	v := VarState{count: r.Uint32()}
	if v.count != 0 {
		v.RootPos, v.Seed, v.TokenAt = r.Int32(), r.Uint64(), r.Int32()
	}
	return v
}

// SnapshotState implements core.Forker.
func (s *strategy) SnapshotState(vars []*core.Variable) (core.StratState, error) {
	n := len(s.t.Nodes)
	st := &State{
		RNG:       s.rng.State(),
		Remaps:    s.remaps,
		Vars:      make([]VarState, len(vars)),
		treeNodes: n,
	}
	total := 0
	for i, v := range vars {
		if v == nil {
			continue
		}
		vs := vstate(v)
		if vs.write != nil {
			return nil, fmt.Errorf("accesstree: variable %d has a pending invalidation", v.ID)
		}
		if ls := &vs.lock; ls.inFlight || ls.holder != -1 || ls.succ != -1 || !ls.tokenFree {
			return nil, fmt.Errorf("accesstree: variable %d has lock activity in flight", v.ID)
		}
		st.Vars[i] = VarState{Seed: vs.seed, RootPos: int32(vs.rootPos), TokenAt: int32(vs.lock.tokenAt), count: uint32(vs.nodes.unrested())}
		total += int(st.Vars[i].count)
	}
	for p := range s.lockers {
		if s.lockers[p].v != nil {
			return nil, fmt.Errorf("accesstree: processor %d is blocked in a lock", p)
		}
	}
	st.ids, st.nodes = make([]uint16, 0, total), make([]nodeState, 0, total)
	if s.opts.RemapThreshold > 0 {
		st.Accesses, st.Moved = make([]uint32, n*len(vars)), make([]int32, n*len(vars))
	}
	for i, v := range vars {
		if v == nil {
			continue
		}
		vs := vstate(v)
		st.capture(&vs.nodes, &st.Vars[i])
		if r := vs.remap; r != nil {
			copy(st.Accesses[i*n:], r.accesses)
			copy(st.Moved[i*n:], r.moved)
		}
	}
	return st, nil
}

// capture appends the nodes not at rest of table t as variable vsn's
// entries, sorted by id: a sparse table holds its nodes in insertion order.
func (st *State) capture(t *nodeTable, vsn *VarState) {
	from := len(st.ids)
	t.each(func(id int, nd nodeState) {
		if nd != restNode {
			st.ids = append(st.ids, uint16(id))
			st.nodes = append(st.nodes, nd)
		}
	})
	ids, nodes := st.ids[from:], st.nodes[from:]
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
	vsn.at = int32(from)
}

// entries returns variable vsn's captured entries.
func (st *State) entries(vsn *VarState) ([]uint16, []nodeState) {
	at, end := int(vsn.at), int(vsn.at)+int(vsn.count)
	return st.ids[at:end], st.nodes[at:end]
}

// check validates a state against this strategy's machine and the
// snapshot's variable records vars — everything RestoreVar indexes with.
func (s *strategy) check(st *State, vars []core.VarState) error {
	if len(st.Vars) != len(vars) {
		return fmt.Errorf("accesstree: snapshot has %d variables, machine has %d", len(st.Vars), len(vars))
	}
	n, p := len(s.t.Nodes), s.m.P()
	if st.treeNodes != n {
		return fmt.Errorf("accesstree: snapshot has %d tree nodes per variable, machine has %d", st.treeNodes, n)
	}
	words := 0 // the remap blocks exist only when remapping
	if s.opts.RemapThreshold > 0 {
		words = n * len(vars)
	}
	if len(st.Accesses) != words || len(st.Moved) != words {
		return fmt.Errorf("accesstree: snapshot has %d access counters and %d positions, machine needs %d", len(st.Accesses), len(st.Moved), words)
	}
	for i, pos := range st.Moved {
		if pos < 0 || int(pos) > p {
			return fmt.Errorf("accesstree: snapshot variable %d moves node %d to processor %d on a %d-processor tree", i/n, i%n, pos-1, p)
		}
	}
	for i := range st.Vars {
		vsn := &st.Vars[i]
		if (vsn.count != 0) != vars[i].Present {
			return fmt.Errorf("accesstree: snapshot and machine disagree on whether variable %d exists", i)
		}
		if vsn.count == 0 {
			continue
		}
		if vsn.RootPos < 0 || int(vsn.RootPos) >= p || vsn.TokenAt < 0 || int(vsn.TokenAt) >= n {
			return fmt.Errorf("accesstree: snapshot variable %d has root position %d, token leaf %d on a %d-processor, %d-node tree", i, vsn.RootPos, vsn.TokenAt, p, n)
		}
	}
	return nil
}

// RestoreState implements core.Forker: the variables' state stays with st
// until RestoreVar builds it.
func (s *strategy) RestoreState(state core.StratState, vars []core.VarState) error {
	st, ok := state.(*State)
	if !ok {
		return fmt.Errorf("accesstree: foreign snapshot state %T", state)
	}
	if err := s.check(st, vars); err != nil {
		return err
	}
	s.rng.SetState(st.RNG)
	s.remaps = st.Remaps
	s.lent = st
	return nil
}

// RestoreVar implements core.Forker: the record and the node table come
// from the arena and the tables InitVar's do, the table filled from the
// capture.
func (s *strategy) RestoreVar(v *core.Variable) {
	st := s.lent
	vsn := &st.Vars[v.ID]
	vs := s.states.Acquire()
	*vs = varState{
		rootPos: int(vsn.RootPos),
		seed:    vsn.Seed,
		lock:    restingLock(int(vsn.TokenAt)),
		nodes:   s.tables.restore(st.entries(vsn)),
	}
	if s.opts.RemapThreshold > 0 {
		at, n := int(v.ID)*st.treeNodes, st.treeNodes
		vs.remap = &remapState{
			accesses: append([]uint32(nil), st.Accesses[at:at+n]...),
			moved:    append([]int32(nil), st.Moved[at:at+n]...),
		}
	}
	if !s.opts.RandomEmbedding {
		vs.posTab = s.m.Plan.PosTable(vs.rootPos)
	}
	v.State = vs
}

// The table section holds each live variable's nodes not at rest, ids
// ascending, entryBytes an entry: the id as a little-endian uint16, then
// the node's word — edges in the low half, then a byte each for toward,
// member, acks and arrow. The state section gives each entry count.
const entryBytes = 10

func nodeWord(n nodeState) uint64 {
	w := uint64(n.edges) | uint64(uint8(n.toward))<<32 | uint64(n.acks)<<48 | uint64(uint8(n.arrow))<<56
	if n.member {
		w |= 1 << 40
	}
	return w
}

// nodeFromWord decodes a table word.
func nodeFromWord(w uint64) nodeState {
	return nodeState{edges: uint32(w), toward: int8(w >> 32), member: w>>40&1 == 1, acks: uint8(w >> 48), arrow: int8(w >> 56)}
}

var restWord = nodeWord(restNode)

// AppendTables implements core.StratState: every live variable's entries,
// which st holds in variable order.
func (st *State) AppendTables(b []byte) []byte {
	b = slices.Grow(b, entryBytes*len(st.ids))
	for i, id := range st.ids {
		b = binary.LittleEndian.AppendUint16(b, id)
		b = binary.LittleEndian.AppendUint64(b, nodeWord(st.nodes[i]))
	}
	return b
}

// LoadState implements core.Forker: the entries are kept as they are.
func (s *strategy) LoadState(state, tables []byte, vars []core.VarState) (core.StratState, error) {
	r := wire.NewReader(state)
	st := ReadState(r, len(vars))
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("accesstree: decode snapshot state: %w", err)
	}
	n := len(s.t.Nodes)
	st.treeNodes = n
	total := 0
	for i := range st.Vars {
		if count := int(st.Vars[i].count); count > n {
			return nil, fmt.Errorf("accesstree: variable %d has %d node table entries, its tree %d nodes", i, count, n)
		}
		total += int(st.Vars[i].count)
	}
	if len(tables) != entryBytes*total {
		return nil, fmt.Errorf("accesstree: node table section of %d bytes, %d entries need %d", len(tables), total, entryBytes*total)
	}
	st.ids, st.nodes = make([]uint16, 0, total), make([]nodeState, 0, total)
	root := s.t.Root()
	for i := range st.Vars {
		vsn := &st.Vars[i]
		count := int(vsn.count)
		if count == 0 {
			continue
		}
		ws := tables[:entryBytes*count]
		tables = tables[entryBytes*count:]
		prev, rooted := -1, false
		vsn.at = int32(len(st.ids))
		for e := range count {
			id, w := int(binary.LittleEndian.Uint16(ws[entryBytes*e:])), binary.LittleEndian.Uint64(ws[entryBytes*e+2:])
			if id <= prev || id >= n {
				return nil, fmt.Errorf("accesstree: variable %d: node table entry %d names tree node %d after %d, of %d", i, e, id, prev, n)
			}
			// An entry is a node not at rest, in a state its node can hold.
			if w == restWord || !s.fits(id, w) {
				return nil, fmt.Errorf("accesstree: variable %d: node table entry of tree node %d is malformed", i, id)
			}
			prev, rooted = id, rooted || id == root
			st.ids = append(st.ids, uint16(id))
			st.nodes = append(st.nodes, nodeFromWord(w))
		}
		// The root is never at rest: its data pointer leads down.
		if !rooted {
			return nil, fmt.Errorf("accesstree: variable %d: node table has no entry for the root", i)
		}
	}
	if err := s.check(st, vars); err != nil {
		return nil, err
	}
	return st, nil
}

// fits reports whether w is a table word tree node id can hold: a member
// byte of 0 or 1, no acknowledgment owed at quiescence (bits 41–55),
// pointers to the node itself, its parent (the root has none) or a child
// it has, and edges only to the neighbors it has.
func (s *strategy) fits(id int, w uint64) bool {
	n := &s.t.Nodes[id]
	up, kids := n.Parent != -1, len(n.Children)
	neighbors := uint64(1)<<(kids+1) - 1 // parent and children
	if !up {
		neighbors &^= uint64(parentBit)
	}
	return w>>41&0x7fff == 0 && uint64(uint32(w))&^neighbors == 0 &&
		dirFits(int8(w>>32), up, kids) && dirFits(int8(w>>56), up, kids)
}

func dirFits(dir int8, up bool, kids int) bool {
	return dir == towardSelf || dir == towardUp && up || dir >= 0 && int(dir) < kids
}

// Reseed implements core.Forker: the strategy's private stream is re-derived
// from the fork seed, so future variable placements diverge between forks.
func (s *strategy) Reseed(seed uint64) {
	s.rng = xrand.New(seed ^ 0x1d8e4e27c47d124f)
}
