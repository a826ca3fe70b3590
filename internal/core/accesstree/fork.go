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
// embedding (root position / ablation seed), the node table (membership,
// directional pointers, edge bits, lock arrows), the leaf the lock token
// rests at, and the remap counters and moved positions. A capture copies
// the nodes a table holds, a sparse table as images of its pages, a full
// one as its slice, and builds a page set over each table's images once.
// A fork lends all of it: RestoreState copies only the random stream and
// the remap count and keeps the state, and RestoreVar builds a variable's
// record when the fork first reaches the variable — its scalars, its remap
// counters and the capture's page set or full table, lent in turn. The
// fork copies a table only when it first writes it (nodeTables.ref), so a
// query that writes few variables copies few tables, a query that never
// reaches a variable builds no record for it, and no index is ever
// rebuilt. The captured state is never written, so forks of one snapshot
// may run at once. The transaction arena, the recycled tables and the
// embedding tables are deliberately not captured — arenas hold no live
// transactions at quiescence, and the embedding tables are a pure function
// of the tree, shared through the machine's core.Plan by the source, its
// forks and every other machine on the same topology and tree.

// State is the strategy's captured state (core.StratState): forks restore
// from it, and a snapshot file carries it — the exported fields in the
// state section (AppendState), the node tables as a raw section
// (AppendTables).
type State struct {
	RNG    xrand.State
	Remaps int
	Vars   []VarState // indexed by VarID; the zero value marks a freed variable
	// pages holds the page images of the sparse tables and full the full
	// tables of the present variables, each back to back in variable
	// order, and sets a lent page set over each sparse table's images.
	// treeNodes is the tree's size.
	pages     []page
	sets      []pageSet
	full      []nodeState
	treeNodes int
}

// VarState is one quiescent variable. Of its lock only the arrows (in the
// node table) and the token's resting leaf persist: queue, waiters and
// holder must be empty/free at quiescence. Values, not pointers: freed
// variables leave holes, zero values, in State.Vars. A snapshot holds one
// a variable id, so the fields are as narrow as their ranges: processors
// and leaves are below the tree's at most 1<<tagShift nodes, and a sparse
// table holds at most maxPages pages.
type VarState struct {
	Present  bool
	RootPos  int32
	Seed     uint64
	Creator  int32
	TokenAt  int32 // leaf the free lock token rests at
	Accesses []uint32
	Moved    []int32 // remapState.moved
	// pages is how many of State.pages are the variable's sparse table, 0
	// if its table is full, and at is where the table is: its page set in
	// State.sets, or its place among the full tables. The table section
	// carries the tables, and LoadState derives both.
	pages uint8
	at    int32
}

// AppendState implements core.StratState: the exported fields.
func (st *State) AppendState(b []byte) []byte {
	b = st.RNG.Append(b)
	b = wire.AppendInt(b, st.Remaps)
	return wire.AppendSlice(b, st.Vars, appendVarState)
}

// ReadState reads the exported fields of a State that AppendState wrote,
// which must hold vars variables. A freed variable is one byte of the file
// and a VarState a hundred in memory, so the count is checked before the
// variables are allocated.
func ReadState(r *wire.Reader, vars int) *State {
	st := &State{RNG: xrand.ReadState(r), Remaps: r.Int()}
	if peek := *r; peek.Len(1) != vars {
		r.Fail("snapshot variable count is not the machine's %d", vars)
		return st
	}
	st.Vars = wire.ReadSlice(r, 1, readVarState)
	return st
}

// A freed variable is one zero byte.
func appendVarState(b []byte, v VarState) []byte {
	b = wire.AppendBool(b, v.Present)
	if !v.Present {
		return b
	}
	b = wire.AppendInt32(b, v.RootPos)
	b = wire.AppendUint64(b, v.Seed)
	b = wire.AppendInt32(b, v.Creator)
	b = wire.AppendInt32(b, v.TokenAt)
	b = wire.AppendSlice(b, v.Accesses, wire.AppendUint32)
	return wire.AppendSlice(b, v.Moved, wire.AppendInt32)
}

func readVarState(r *wire.Reader) VarState {
	if !r.Bool() {
		return VarState{}
	}
	return VarState{Present: true, RootPos: r.Int32(), Seed: r.Uint64(), Creator: r.Int32(), TokenAt: r.Int32(),
		Accesses: wire.ReadSlice(r, 1, (*wire.Reader).Uint32),
		Moved:    wire.ReadSlice(r, 1, (*wire.Reader).Int32)}
}

// SnapshotState implements core.Forker.
func (s *strategy) SnapshotState(vars []*core.Variable) (core.StratState, error) {
	n, pages, sets, full := len(s.t.Nodes), 0, 0, 0
	for _, v := range vars {
		if v == nil {
			continue
		}
		if t := &vstate(v).nodes; t.full == nil {
			pages += int(t.pages.npages)
			sets++
		} else {
			full += n
		}
	}
	st := &State{
		RNG:       s.rng.State(),
		Remaps:    s.remaps,
		Vars:      make([]VarState, len(vars)),
		pages:     make([]page, 0, pages),
		sets:      make([]pageSet, 0, sets),
		full:      make([]nodeState, 0, full),
		treeNodes: n,
	}
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
		vsn := &st.Vars[i]
		*vsn = VarState{
			Present: true,
			RootPos: int32(vs.rootPos),
			Seed:    vs.seed,
			Creator: int32(vs.creator),
			TokenAt: int32(vs.lock.tokenAt),
		}
		st.capture(&vs.nodes, vsn)
		if r := vs.remap; r != nil {
			vsn.Accesses = append([]uint32(nil), r.accesses...)
			vsn.Moved = append([]int32(nil), r.moved...)
		}
	}
	for p := range s.lockers {
		if s.lockers[p].v != nil {
			return nil, fmt.Errorf("accesstree: processor %d is blocked in a lock", p)
		}
	}
	st.lend()
	return st, nil
}

// capture appends the nodes table t holds to the page images and its page
// set, or to the full tables, and records in vsn where they are.
func (st *State) capture(t *nodeTable, vsn *VarState) {
	if ps := t.pages; t.full == nil {
		for _, pg := range ps.pages[:ps.npages] {
			st.pages = append(st.pages, *pg)
		}
		vsn.pages, vsn.at = ps.npages, int32(len(st.sets))
		st.sets = append(st.sets, pageSet{count: ps.count, npages: ps.npages, lent: 1})
	} else {
		vsn.at = int32(len(st.full) / st.treeNodes)
		st.full = append(st.full, t.full...)
	}
}

// lend points every captured page set at its page images: both are in
// variable order.
func (st *State) lend() {
	imgs := st.pages
	for i := range st.sets {
		ps := &st.sets[i]
		for j := range ps.npages {
			ps.pages[j] = &imgs[j]
		}
		imgs = imgs[ps.npages:]
	}
}

// lentTable returns variable vsn's captured table, lent: its page set, or
// its full table marked by lentFull.
func (st *State) lentTable(vsn *VarState) nodeTable {
	if vsn.pages > 0 {
		return nodeTable{pages: &st.sets[vsn.at]}
	}
	n := st.treeNodes
	return nodeTable{full: st.full[int(vsn.at)*n:][:n:n], pages: &lentFull}
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
	counters := 0 // the remap side tables exist only when remapping
	if s.opts.RemapThreshold > 0 {
		counters = n
	}
	for i := range st.Vars {
		vsn := &st.Vars[i]
		if vsn.Present != vars[i].Present {
			return fmt.Errorf("accesstree: snapshot and machine disagree on whether variable %d exists", i)
		}
		if !vsn.Present {
			continue
		}
		if len(vsn.Accesses) != counters || len(vsn.Moved) != counters {
			return fmt.Errorf("accesstree: snapshot variable %d has %d access counters and %d positions, machine needs %d", i, len(vsn.Accesses), len(vsn.Moved), counters)
		}
		if vsn.RootPos < 0 || int(vsn.RootPos) >= p || vsn.TokenAt < 0 || int(vsn.TokenAt) >= n {
			return fmt.Errorf("accesstree: snapshot variable %d has root position %d, token leaf %d on a %d-processor, %d-node tree", i, vsn.RootPos, vsn.TokenAt, p, n)
		}
		for node, pos := range vsn.Moved {
			if pos < 0 || int(pos) > p {
				return fmt.Errorf("accesstree: snapshot variable %d moves node %d to processor %d on a %d-processor tree", i, node, pos-1, p)
			}
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

// RestoreVar implements core.Forker: the record comes from the arena
// InitVar's do, the node table is the capture's, lent.
func (s *strategy) RestoreVar(v *core.Variable) {
	vsn := &s.lent.Vars[v.ID]
	vs := s.states.Acquire()
	*vs = varState{
		rootPos: int(vsn.RootPos),
		seed:    vsn.Seed,
		creator: int(vsn.Creator),
		lock:    restingLock(int(vsn.TokenAt)),
		nodes:   s.lent.lentTable(vsn),
	}
	if s.opts.RemapThreshold > 0 {
		vs.remap = &remapState{
			accesses: append([]uint32(nil), vsn.Accesses...),
			moved:    append([]int32(nil), vsn.Moved...),
		}
	}
	if !s.opts.RandomEmbedding {
		vs.posTab = s.m.Plan.PosTable(vs.rootPos)
	}
	v.State = vs
}

// The table section of a snapshot file keeps the dense layout: every node
// of every present variable's tree, one little-endian word a node — edges
// in the low half, then a byte each for toward, member, acks and arrow.
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

// AppendTables implements core.StratState: the dense node tables, every
// node a sparse table does not hold written at rest.
func (st *State) AppendTables(b []byte) []byte {
	n, pages, full := st.treeNodes, st.pages, st.full
	present := 0
	for i := range st.Vars {
		if st.Vars[i].Present {
			present++
		}
	}
	b = slices.Grow(b, 8*n*present)
	for i := range st.Vars {
		vsn := &st.Vars[i]
		if !vsn.Present {
			continue
		}
		if vsn.pages == 0 {
			for _, nd := range full[:n] {
				b = binary.LittleEndian.AppendUint64(b, nodeWord(nd))
			}
			full = full[n:]
			continue
		}
		off := len(b)
		for range n {
			b = binary.LittleEndian.AppendUint64(b, restWord)
		}
		for e := range st.sets[vsn.at].count {
			pg := &pages[e/pageNodes]
			binary.LittleEndian.PutUint64(b[off+8*int(pg.ids[e%pageNodes]):], nodeWord(pg.slots[e%pageNodes]))
		}
		pages = pages[vsn.pages:]
	}
	return b
}

// LoadState implements core.Forker: a variable whose nodes not at rest fit
// a sparse table gets one, as page images; the others keep full tables.
func (s *strategy) LoadState(state, tables []byte, vars []core.VarState) (core.StratState, error) {
	r := wire.NewReader(state)
	st := ReadState(r, len(vars))
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("accesstree: decode snapshot state: %w", err)
	}
	n, present := len(s.t.Nodes), 0
	for i := range st.Vars {
		if st.Vars[i].Present {
			present++
		}
	}
	if len(tables) != 8*n*present {
		return nil, fmt.Errorf("accesstree: node table section of %d bytes, %d variables of %d tree nodes need %d", len(tables), present, n, 8*n*present)
	}
	// Size the blocks first: count the nodes not at rest of every table.
	pages, sets, full := 0, 0, 0
	for i, off := 0, 0; i < len(st.Vars); i++ {
		vsn := &st.Vars[i]
		if !vsn.Present {
			continue
		}
		count := 0
		for id := range n {
			d := binary.LittleEndian.Uint64(tables[off+8*id:]) ^ restWord
			count += int((d | -d) >> 63) // 1 unless w is the word at rest
		}
		off += 8 * n
		if k := s.tables.pagesFor(count); k > 0 {
			vsn.pages = uint8(k)
			pages += k
			sets++
		} else {
			full += n
		}
	}
	st.treeNodes = n
	st.pages = make([]page, pages)
	st.sets = make([]pageSet, 0, sets)
	st.full = make([]nodeState, full)
	imgs, fulls, root := st.pages, st.full, s.t.Root()
	for i := range st.Vars {
		vsn := &st.Vars[i]
		if !vsn.Present {
			continue
		}
		ws := tables[:8*n]
		tables = tables[8*n:]
		malformed := func(id int) error {
			return fmt.Errorf("accesstree: variable %d: node table entry of tree node %d is malformed", i, id)
		}
		// The root is never at rest: its data pointer leads down.
		if binary.LittleEndian.Uint64(ws[8*root:]) == restWord {
			return nil, malformed(root)
		}
		if vsn.pages == 0 {
			for id := range n {
				w := binary.LittleEndian.Uint64(ws[8*id:])
				if w != restWord && !s.fits(id, w) {
					return nil, malformed(id)
				}
				fulls[id] = nodeFromWord(w)
			}
			vsn.at = int32((len(st.full) - len(fulls)) / n)
			fulls = fulls[n:]
			continue
		}
		e := 0
		for id := range n {
			w := binary.LittleEndian.Uint64(ws[8*id:])
			if w == restWord {
				continue
			}
			if !s.fits(id, w) {
				return nil, malformed(id)
			}
			pg := &imgs[e/pageNodes]
			pg.ids[e%pageNodes], pg.slots[e%pageNodes] = uint16(id), nodeFromWord(w)
			e++
		}
		imgs = imgs[vsn.pages:]
		vsn.at = int32(len(st.sets))
		st.sets = append(st.sets, pageSet{count: uint8(e), npages: vsn.pages, lent: 1})
	}
	st.lend()
	for i := range st.sets {
		st.sets[i].reindex()
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
