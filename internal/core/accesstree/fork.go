package accesstree

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sort"

	"diva/internal/core"
	"diva/internal/xrand"
)

// core.Forker implementation: deep-copy capture and restore of the access
// tree strategy's state for machine snapshot/fork. Captured per variable:
// the embedding (root position / ablation seed), the dense node table
// (membership, directional pointers, edge bits, lock arrows), the leaf the
// lock token rests at, and the remap counters and overrides. The node
// tables of one capture share a single block, so a snapshot, a fork or a
// restore from disk costs one table allocation however many variables it
// holds. The transaction arena, the recycled node-table pool and the
// embedding tables are deliberately not captured — arenas hold no live
// transactions at quiescence, and the embedding tables are a pure function
// of the tree, shared through the machine's core.Plan by the source, its
// forks and every other machine on the same topology and tree.

// State is the strategy's captured state (core.StratState): forks restore
// from it, and a snapshot file carries it — the exported fields through
// encoding/gob, the node tables as a raw section (AppendTables).
type State struct {
	RNG    xrand.State
	Remaps int
	Vars   []VarState // indexed by VarID; the zero value marks a freed variable
	// nodes holds the node tables of the present variables back to back,
	// in variable order.
	nodes []nodeState
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
	// Overrides lists the remapped nodes as (node, processor) pairs,
	// ascending by node: a map would reach a snapshot file in iteration
	// order, and the same state must always encode to the same bytes.
	Overrides []int
	Remaps    int
}

func init() {
	gob.RegisterName("diva/accesstree.State", &State{})
}

func overridePairs(m map[int]int) []int {
	if len(m) == 0 {
		return nil
	}
	nodes := make([]int, 0, len(m))
	for node := range m {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	pairs := make([]int, 0, 2*len(m))
	for _, node := range nodes {
		pairs = append(pairs, node, m[node])
	}
	return pairs
}

func overrideMap(pairs []int) map[int]int {
	if len(pairs) == 0 {
		return nil
	}
	m := make(map[int]int, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i]] = pairs[i+1]
	}
	return m
}

// SnapshotState implements core.Forker.
func (s *strategy) SnapshotState(vars []*core.Variable) (core.StratState, error) {
	st := &State{
		RNG:    s.rng.State(),
		Remaps: s.remaps,
		Vars:   make([]VarState, len(vars)),
		nodes:  make([]nodeState, 0, len(s.t.Nodes)*core.LiveVars(vars)),
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
		st.nodes = append(st.nodes, vs.nodes...)
		st.Vars[i] = VarState{
			Present:   true,
			RootPos:   vs.rootPos,
			Seed:      vs.seed,
			Creator:   vs.creator,
			TokenAt:   vs.lock.tokenAt,
			Accesses:  append([]uint32(nil), vs.accesses...),
			Overrides: overridePairs(vs.posOverride),
			Remaps:    vs.remaps,
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
	counters := 0 // the access side table exists only when remapping
	if s.opts.RemapThreshold > 0 {
		counters = n
	}
	present := 0
	for i := range st.Vars {
		vsn := &st.Vars[i]
		if vsn.Present != live(i) {
			return fmt.Errorf("accesstree: snapshot and machine disagree on whether variable %d exists", i)
		}
		if !vsn.Present {
			continue
		}
		present++
		if len(vsn.Accesses) != counters {
			return fmt.Errorf("accesstree: snapshot variable %d has %d access counters, machine needs %d", i, len(vsn.Accesses), counters)
		}
		if vsn.RootPos < 0 || vsn.RootPos >= p || vsn.TokenAt < 0 || vsn.TokenAt >= n {
			return fmt.Errorf("accesstree: snapshot variable %d has root position %d, token leaf %d on a %d-processor, %d-node tree", i, vsn.RootPos, vsn.TokenAt, p, n)
		}
		if len(vsn.Overrides)&1 != 0 {
			return fmt.Errorf("accesstree: snapshot variable %d has a torn position override", i)
		}
		for j := 0; j < len(vsn.Overrides); j += 2 {
			if node, pos := vsn.Overrides[j], vsn.Overrides[j+1]; node < 0 || node >= n || pos < 0 || pos >= p {
				return fmt.Errorf("accesstree: snapshot variable %d overrides node %d to processor %d on a %d-processor, %d-node tree", i, node, pos, p, n)
			}
		}
	}
	if len(st.nodes) != n*present {
		return fmt.Errorf("accesstree: snapshot has %d tree nodes for %d variables, machine has %d per variable", len(st.nodes), present, n)
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
	n := len(s.t.Nodes)
	tables := append([]nodeState(nil), st.nodes...)
	states := make([]varState, core.LiveVars(vars))
	for i := range st.Vars {
		vsn := &st.Vars[i]
		if !vsn.Present {
			continue
		}
		vs := &states[0]
		states = states[1:]
		*vs = varState{
			rootPos:     vsn.RootPos,
			seed:        vsn.Seed,
			creator:     vsn.Creator,
			nodes:       tables[:n:n],
			lock:        restingLock(vsn.TokenAt),
			accesses:    append([]uint32(nil), vsn.Accesses...),
			posOverride: overrideMap(vsn.Overrides),
			remaps:      vsn.Remaps,
		}
		tables = tables[n:]
		if !s.opts.RandomEmbedding {
			vs.posTab = s.m.Plan.PosTable(vs.rootPos)
		}
		vars[i].State = vs
	}
	return nil
}

// AppendTables implements core.StratState: the node tables, one
// little-endian word a node — edges in the low half, then a byte each for
// toward, member, acks and arrow.
func (st *State) AppendTables(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, 8*len(st.nodes))...)
	for i, n := range st.nodes {
		w := uint64(n.edges) | uint64(uint8(n.toward))<<32 | uint64(n.acks)<<48 | uint64(uint8(n.arrow))<<56
		if n.member {
			w |= 1 << 40
		}
		binary.LittleEndian.PutUint64(b[off+8*i:], w)
	}
	return b
}

// LoadState implements core.Forker.
func (s *strategy) LoadState(state core.StratState, tables []byte, vars []core.VarState) error {
	st, ok := state.(*State)
	if !ok {
		return fmt.Errorf("accesstree: foreign snapshot state %T", state)
	}
	if len(tables)%8 != 0 {
		return fmt.Errorf("accesstree: node table section of %d bytes is not whole nodes", len(tables))
	}
	st.nodes = make([]nodeState, len(tables)/8)
	for i := range st.nodes {
		w := binary.LittleEndian.Uint64(tables[8*i:])
		n := nodeState{edges: uint32(w), toward: int8(w >> 32), member: w>>40&1 == 1, arrow: int8(w >> 56)}
		// The member byte is 0 or 1 and a quiescent node awaits no
		// acknowledgment (bits 41–55 clear); pointers name the node itself,
		// its parent or a child.
		if w>>41&0x7fff != 0 || n.toward < towardSelf || n.toward >= maxChildren || n.arrow < towardSelf || n.arrow >= maxChildren {
			return fmt.Errorf("accesstree: node table entry %d is malformed", i)
		}
		st.nodes[i] = n
	}
	return s.check(st, len(vars), func(i int) bool { return vars[i].Present })
}

// Reseed implements core.Forker: the strategy's private stream is re-derived
// from the fork seed, so future variable placements diverge between forks.
func (s *strategy) Reseed(seed uint64) {
	s.rng = xrand.New(seed ^ 0x1d8e4e27c47d124f)
}
