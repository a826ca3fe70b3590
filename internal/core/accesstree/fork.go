package accesstree

import (
	"fmt"

	"diva/internal/core"
	"diva/internal/xrand"
)

// core.Forker implementation: deep-copy capture and restore of the access
// tree strategy's state for machine snapshot/fork. Captured per variable:
// the embedding (root position / ablation seed), the dense node table
// (membership, directional pointers, edge bits, lock arrows), the leaf the
// lock token rests at, and the remap counters and overrides. The node
// tables of one capture share a single block, so a snapshot or a fork
// costs one table allocation however many variables it holds. The
// transaction arena, the recycled node-table pool and the shared embedding
// tables are deliberately not captured — arenas hold no live transactions
// at quiescence, and the embedding tables are a pure function of the tree,
// rebuilt lazily per fork.

type snapState struct {
	rng    xrand.State
	remaps int
	vars   []varSnapState // indexed by VarID; present=false for freed variables
}

// varSnapState is one quiescent variable. Of its lock only the arrows (in
// nodes) and the token's resting leaf persist: queue, waiters and holder
// must be empty/free at quiescence.
type varSnapState struct {
	present     bool
	rootPos     int
	seed        uint64
	creator     int
	nodes       []nodeState
	tokenAt     int
	accesses    []uint32
	posOverride map[int]int
	remaps      int
}

func copyOverride(m map[int]int) map[int]int {
	if m == nil {
		return nil
	}
	c := make(map[int]int, len(m))
	for k, p := range m {
		c[k] = p
	}
	return c
}

// SnapshotState implements core.Forker.
func (s *strategy) SnapshotState(vars []*core.Variable) (interface{}, error) {
	st := &snapState{rng: s.rng.State(), remaps: s.remaps, vars: make([]varSnapState, len(vars))}
	n := len(s.t.Nodes)
	tables := make([]nodeState, n*core.LiveVars(vars))
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
		nodes := tables[:n:n]
		tables = tables[n:]
		copy(nodes, vs.nodes)
		st.vars[i] = varSnapState{
			present:     true,
			rootPos:     vs.rootPos,
			seed:        vs.seed,
			creator:     vs.creator,
			nodes:       nodes,
			tokenAt:     vs.lock.tokenAt,
			accesses:    append([]uint32(nil), vs.accesses...),
			posOverride: copyOverride(vs.posOverride),
			remaps:      vs.remaps,
		}
	}
	for p := range s.lockers {
		if s.lockers[p].v != nil {
			return nil, fmt.Errorf("accesstree: processor %d is blocked in a lock", p)
		}
	}
	return st, nil
}

// RestoreState implements core.Forker.
func (s *strategy) RestoreState(state interface{}, vars []*core.Variable) error {
	st, ok := state.(*snapState)
	if !ok {
		return fmt.Errorf("accesstree: foreign snapshot state %T", state)
	}
	if len(st.vars) != len(vars) {
		return fmt.Errorf("accesstree: snapshot has %d variables, machine has %d", len(st.vars), len(vars))
	}
	s.rng.SetState(st.rng)
	s.remaps = st.remaps
	n := len(s.t.Nodes)
	tables := make([]nodeState, n*core.LiveVars(vars))
	states := make([]varState, core.LiveVars(vars))
	counters := 0 // the access side table exists only when remapping
	if s.opts.RemapThreshold > 0 {
		counters = n
	}
	for i := range st.vars {
		vsn := &st.vars[i]
		if !vsn.present {
			continue
		}
		v := vars[i]
		if v == nil {
			return fmt.Errorf("accesstree: snapshot has state for freed variable %d", i)
		}
		if len(vsn.nodes) != n {
			return fmt.Errorf("accesstree: snapshot variable %d has %d tree nodes, machine has %d", i, len(vsn.nodes), n)
		}
		if len(vsn.accesses) != counters {
			return fmt.Errorf("accesstree: snapshot variable %d has %d access counters, machine needs %d", i, len(vsn.accesses), counters)
		}
		nodes := tables[:n:n]
		tables = tables[n:]
		copy(nodes, vsn.nodes)
		vs := &states[0]
		states = states[1:]
		*vs = varState{
			rootPos:     vsn.rootPos,
			seed:        vsn.seed,
			creator:     vsn.creator,
			nodes:       nodes,
			lock:        restingLock(vsn.tokenAt),
			accesses:    append([]uint32(nil), vsn.accesses...),
			posOverride: copyOverride(vsn.posOverride),
			remaps:      vsn.remaps,
		}
		if !s.opts.RandomEmbedding {
			vs.posTab = s.posTable(vs.rootPos)
		}
		v.State = vs
	}
	return nil
}

// Reseed implements core.Forker: the strategy's private stream is re-derived
// from the fork seed, so future variable placements diverge between forks.
func (s *strategy) Reseed(seed uint64) {
	s.rng = xrand.New(seed ^ 0x1d8e4e27c47d124f)
}
