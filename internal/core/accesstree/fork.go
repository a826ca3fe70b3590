package accesstree

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"slices"

	"diva/internal/core"
	"diva/internal/xrand"
)

// core.Forker implementation: deep-copy capture and restore of the access
// tree strategy's state for machine snapshot/fork. Captured per variable:
// the embedding (root position / ablation seed), the node table
// (membership, directional pointers, edge bits, lock arrows), the leaf the
// lock token rests at, and the remap counters and moved positions. A
// sparse node table is captured as images of its pages, a full one as its
// slice, so capture and restore copy the nodes a table holds and nothing
// else, and no index is rebuilt. The tables of one capture share one block of page
// images and one of full tables, and a restore carves from one block of
// each kind, however many variables it holds. The transaction arena, the
// recycled tables and the embedding tables are deliberately not captured —
// arenas hold no live transactions at quiescence, and the embedding tables
// are a pure function of the tree, shared through the machine's core.Plan
// by the source, its forks and every other machine on the same topology
// and tree.

// State is the strategy's captured state (core.StratState): forks restore
// from it, and a snapshot file carries it — the exported fields through
// encoding/gob, the node tables as a raw section (AppendTables).
type State struct {
	RNG    xrand.State
	Remaps int
	Vars   []VarState // indexed by VarID; the zero value marks a freed variable
	// pages holds the page images of the sparse tables and full the full
	// tables of the present variables, each back to back in variable
	// order. treeNodes is the tree's size.
	pages     []page
	full      []nodeState
	treeNodes int
}

// VarState is one quiescent variable. Of its lock only the arrows (in the
// node table) and the token's resting leaf persist: queue, waiters and
// holder must be empty/free at quiescence. Values, not pointers: gob
// rejects nil elements in pointer slices, and freed variables leave holes.
type VarState struct {
	Present  bool
	RootPos  int
	Seed     uint64
	Creator  int
	TokenAt  int // leaf the free lock token rests at
	Accesses []uint32
	Moved    []int32 // remapState.moved
	// pages is how many of State.pages are the variable's sparse table,
	// which holds count nodes; 0 if its table is full. The table section
	// carries the tables, not gob.
	pages, count int
}

func init() {
	gob.RegisterName("diva/accesstree.State", &State{})
}

// SnapshotState implements core.Forker.
func (s *strategy) SnapshotState(vars []*core.Variable) (core.StratState, error) {
	n, pages, full := len(s.t.Nodes), 0, 0
	for _, v := range vars {
		if v == nil {
			continue
		}
		if ps := vstate(v).nodes.pages; ps != nil {
			pages += int(ps.npages)
		} else {
			full += n
		}
	}
	st := &State{
		RNG:       s.rng.State(),
		Remaps:    s.remaps,
		Vars:      make([]VarState, len(vars)),
		pages:     make([]page, 0, pages),
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
			RootPos: vs.rootPos,
			Seed:    vs.seed,
			Creator: vs.creator,
			TokenAt: vs.lock.tokenAt,
		}
		if ps := vs.nodes.pages; ps != nil {
			for _, pg := range ps.pages[:ps.npages] {
				st.pages = append(st.pages, *pg)
			}
			vsn.pages, vsn.count = int(ps.npages), int(ps.count)
		} else {
			st.full = append(st.full, vs.nodes.full...)
		}
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
	return st, nil
}

// check validates a state against this strategy's machine — everything
// RestoreState indexes with; live reports whether the machine's variable i
// exists.
func (s *strategy) check(st *State, vars int, live func(i int) bool) error {
	if len(st.Vars) != vars {
		return fmt.Errorf("accesstree: snapshot has %d variables, machine has %d", len(st.Vars), vars)
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
		if vsn.Present != live(i) {
			return fmt.Errorf("accesstree: snapshot and machine disagree on whether variable %d exists", i)
		}
		if !vsn.Present {
			continue
		}
		if len(vsn.Accesses) != counters || len(vsn.Moved) != counters {
			return fmt.Errorf("accesstree: snapshot variable %d has %d access counters and %d positions, machine needs %d", i, len(vsn.Accesses), len(vsn.Moved), counters)
		}
		if vsn.RootPos < 0 || vsn.RootPos >= p || vsn.TokenAt < 0 || vsn.TokenAt >= n {
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

// RestoreState implements core.Forker.
func (s *strategy) RestoreState(state core.StratState, vars []*core.Variable) error {
	st, ok := state.(*State)
	if !ok {
		return fmt.Errorf("accesstree: foreign snapshot state %T", state)
	}
	if err := s.check(st, len(vars), func(i int) bool { return vars[i] != nil }); err != nil {
		return err
	}
	s.rng.SetState(st.RNG)
	s.remaps = st.Remaps
	sets := 0
	for i := range st.Vars {
		if st.Vars[i].pages > 0 {
			sets++
		}
	}
	s.tables.reserve(len(st.pages), sets, len(st.full)/st.treeNodes)
	states := make([]varState, core.LiveVars(vars))
	pages, full := st.pages, st.full
	for i := range st.Vars {
		vsn := &st.Vars[i]
		if !vsn.Present {
			continue
		}
		vs := &states[0]
		states = states[1:]
		*vs = varState{
			rootPos: vsn.RootPos,
			seed:    vsn.Seed,
			creator: vsn.Creator,
			lock:    restingLock(vsn.TokenAt),
		}
		if vsn.pages > 0 {
			vs.nodes = s.tables.copySparse(pages[:vsn.pages], vsn.count)
			pages = pages[vsn.pages:]
		} else {
			vs.nodes = nodeTable{full: s.tables.carveFull()}
			full = full[copy(vs.nodes.full, full):]
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
		vars[i].State = vs
	}
	return nil
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
		for e := range vsn.count {
			pg := &pages[e/pageNodes]
			binary.LittleEndian.PutUint64(b[off+8*int(pg.ids[e%pageNodes]):], nodeWord(pg.slots[e%pageNodes]))
		}
		pages = pages[vsn.pages:]
	}
	return b
}

// LoadState implements core.Forker: a variable whose nodes not at rest fit
// a sparse table gets one, as page images; the others keep full tables.
func (s *strategy) LoadState(state core.StratState, tables []byte, vars []core.VarState) error {
	st, ok := state.(*State)
	if !ok {
		return fmt.Errorf("accesstree: foreign snapshot state %T", state)
	}
	n, present := len(s.t.Nodes), 0
	for i := range st.Vars {
		if st.Vars[i].Present {
			present++
		}
	}
	if len(tables) != 8*n*present {
		return fmt.Errorf("accesstree: node table section of %d bytes, %d variables of %d tree nodes need %d", len(tables), present, n, 8*n*present)
	}
	// Size both blocks first: count the nodes not at rest of every table.
	pages, full := 0, 0
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
		vsn.count, vsn.pages = count, s.tables.pagesFor(count)
		if vsn.pages > 0 {
			pages += vsn.pages
		} else {
			full += n
		}
	}
	st.treeNodes = n
	st.pages = make([]page, pages)
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
			return malformed(root)
		}
		if vsn.pages == 0 {
			for id := range n {
				w := binary.LittleEndian.Uint64(ws[8*id:])
				if w != restWord && !s.fits(id, w) {
					return malformed(id)
				}
				fulls[id] = nodeFromWord(w)
			}
			fulls, vsn.count = fulls[n:], 0
			continue
		}
		e := 0
		for id := range n {
			w := binary.LittleEndian.Uint64(ws[8*id:])
			if w == restWord {
				continue
			}
			if !s.fits(id, w) {
				return malformed(id)
			}
			pg := &imgs[e/pageNodes]
			pg.ids[e%pageNodes], pg.slots[e%pageNodes] = uint16(id), nodeFromWord(w)
			e++
		}
		ps := pageSet{count: uint8(vsn.count), npages: uint8(vsn.pages)}
		for j := range vsn.pages {
			ps.pages[j] = &imgs[j]
		}
		ps.reindex()
		imgs = imgs[vsn.pages:]
	}
	return s.check(st, len(vars), func(i int) bool { return vars[i].Present })
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
