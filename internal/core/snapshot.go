package core

import (
	"fmt"
	"math/bits"

	"diva/internal/mesh"
	"diva/internal/sim"
	"diva/internal/xrand"
)

// This file implements machine snapshot/fork: a deep copy of a quiescent
// machine's entire simulated state — kernel clock/sequence/fingerprint,
// network links and inboxes, variables, caches, barrier counters, and the
// strategy's protocol state — from which any number of independent machines
// can be forked. A fork continues the run exactly where the snapshot was
// taken: fork-then-run is bit-identical (fingerprints and all simulated
// metrics) to continuing the original machine, which the A/B tests pin.
//
// Snapshots are only legal at quiescence: simulated processes are
// goroutines whose stacks cannot be copied, so every process must have
// finished, no event may be pending, and no transaction may be in flight.
// The practical shape is "run a warm-up workload to completion, snapshot,
// fork per query" — and the same capture doubles as a checkpoint for
// crash-consistent long runs.
//
// A fork is built by constructing the per-machine state of a fresh machine
// from the pinned config, on the snapshot's pinned Plan — tree, route memo
// and embedding tables are shared by reference, never rebuilt, and no
// table is consulted to find them (construction is deterministic: the same
// seed replays the same barrier root draw and strategy stream split) — and
// then overwriting the machine-wide mutable state — kernel, network, RNG,
// barrier, caches, the strategy's counters — with copies from the snapshot.
// The variables are lent, not copied: a fork starts with every variable
// the snapshot holds marked as still borrowed, and makes its own record of
// one — the Variable, its local-copy bitmap and the strategy's state, node
// table included — the first time the query reaches it (Machine.Var). A query that touches a few of a warmed machine's
// variables pays for those few. The snapshot itself is immutable after
// capture, so concurrent forks from one snapshot are safe — the serve layer
// relies on this.

// Forker is the optional interface a Strategy implements to support
// Machine.Snapshot and fork. Both built-in strategies (accesstree,
// fixedhome) implement it; a machine whose strategy does not cannot be
// snapshotted.
type Forker interface {
	// SnapshotState returns an immutable deep copy of the strategy's
	// mutable state, including the per-variable protocol state. vars
	// indexes the machine's variables by id (nil entries are freed). It
	// fails when protocol state that cannot be captured is live (pending
	// invalidations, queued lock requests, a held lock).
	SnapshotState(vars []*Variable) (StratState, error)
	// RestoreState copies the machine-wide part of a SnapshotState result
	// onto this strategy (bound to an identically configured machine) and
	// keeps the state for RestoreVar; vars are the snapshot's variable
	// records, which the state must fit. The state is never mutated, so many
	// forks can restore from one.
	RestoreState(state StratState, vars []VarState) error
	// RestoreVar installs on v, a fork's fresh record of a variable the
	// restored state holds, the protocol state it captured for v.ID.
	RestoreVar(v *Variable)
	// LoadState decodes a state from a snapshot file — the strategy's own
	// bytes of the state section (StratState.AppendState) and the raw
	// table section (AppendTables) — into the form SnapshotState captures,
	// copying what it keeps, and validates it against this strategy's
	// machine, vars being the stored variable records. A state it returns
	// restores without error.
	LoadState(state, tables []byte, vars []VarState) (StratState, error)
	// Reseed re-derives the strategy's private random stream from a fresh
	// seed, so a fork diverges from its siblings in every future random
	// draw (new variable placements). State inherited from the snapshot is
	// unaffected.
	Reseed(seed uint64)
}

// StratState is a strategy's captured state: the value a fork restores
// from and the value a snapshot file carries, in two parts — its bulk
// tables as raw little-endian integers in the table section, the rest
// as the strategy's own bytes at the end of the state section. Only the
// strategy reads either back (Forker.LoadState), so no type names them.
type StratState interface {
	// AppendTables appends the state's bulk tables to b (nothing, for a
	// strategy without any) and returns the extended slice.
	AppendTables(b []byte) []byte
	// AppendState appends everything but the tables to b and returns the
	// extended slice.
	AppendState(b []byte) []byte
}

// seedSalt decorrelates the machine RNG from the raw user seed; InitVar
// streams are further split off per strategy. faultSalt splits off the
// fault-schedule draw entirely — it must not advance the machine RNG, or a
// machine given the drawn schedule explicitly would diverge.
// reactSalt splits off the reactive transport's jitter streams the same way.
const (
	seedSalt  = 0xd1b54a32d192ed03
	faultSalt = 0x9e6c63d0876a9a35
	reactSalt = 0xc2b2ae3d27d4eb4f
)

// Snapshot is a deep copy of a quiescent machine's simulated state.
// Immutable after capture; Fork any number of times, concurrently. A
// snapshot read back from a file (SnapshotFromWire) has the very same
// representation as one captured live, so both fork through one path.
type Snapshot struct {
	cfg Config
	// plan is the source machine's: every fork runs on it.
	plan *Plan
	st   snapState
	// locals holds the local-copy bitmaps by id, back to back; a freed
	// variable's words are zero.
	locals []uint64
	// data holds the variables' values by id, shared by reference — values
	// are immutable by the library-wide Write contract.
	data []interface{}
}

// localWords is the length of one local-copy bitmap in words.
func (s *Snapshot) localWords() int { return (s.plan.Topo.N() + 63) / 64 }

// snapState is the part of a snapshot that a snapshot file carries in its
// state section (wire.go).
type snapState struct {
	Kern    sim.KernelState
	Net     *mesh.NetworkState
	RNG     xrand.State
	Vars    []VarState // by id; the zero value marks a freed variable
	Barrier BarrierState
	Caches  []CacheState // one a node if the caches are bounded, else none
	Strat   StratState
}

// VarState captures one variable record's scalars. A snapshot holds one a
// variable id, so they are int32: Snapshot refuses a variable whose size
// does not fit.
type VarState struct {
	Present bool
	Size    int32
	Creator int32
}

// BarrierState is the barrier's release counters: Batched + Cascaded is
// the number of epochs released.
type BarrierState struct {
	Batched  uint64
	Cascaded uint64
	Aborted  uint64
}

// CacheState is one node cache's entry keys in LRU→MRU order plus its
// replacement counter; entry sizes are re-derived from the variables.
type CacheState struct {
	Keys      []CacheKey
	Evictions uint64
}

// CacheKey names one cache entry: the variable and the strategy's name for
// the place holding the copy (Cache.Insert).
type CacheKey struct {
	Var  int32
	Node int
}

// ForkOptions tunes Snapshot.Fork.
type ForkOptions struct {
	// Reseed re-derives the fork's random streams (machine RNG and the
	// strategy's) from Seed: forks with distinct seeds diverge in every
	// future random draw while inheriting the snapshot's state unchanged.
	Reseed bool
	Seed   uint64
}

// Snapshot captures the machine's state. The machine must be quiescent:
// every spawned process finished, no event pending, no transaction active.
// Machines with a strategy require it to implement Forker. A fork first
// makes every variable it still borrows: a capture is O(variables) anyway.
func (m *Machine) Snapshot() (*Snapshot, error) {
	ks, err := m.K.SnapshotState()
	if err != nil {
		return nil, fmt.Errorf("diva: snapshot: %w", err)
	}
	for _, v := range m.vars {
		if v != nil && v.busy() {
			return nil, fmt.Errorf("diva: snapshot with an active transaction on variable %d", v.ID)
		}
	}
	if m.bar.open > 0 {
		return nil, fmt.Errorf("diva: snapshot with a partial barrier arrival")
	}
	for i, f := range m.bar.waiting {
		if f != nil {
			return nil, fmt.Errorf("diva: snapshot with process p%d blocked in a barrier", i)
		}
	}
	var forker Forker
	if m.Strat != nil {
		var ok bool
		if forker, ok = m.Strat.(Forker); !ok {
			return nil, fmt.Errorf("diva: strategy %q does not support snapshot/fork", m.Strat.Name())
		}
	}
	m.borrowAll()
	s := &Snapshot{plan: m.Plan}
	s.st.RNG = m.RNG.State()
	s.cfg = m.Cfg
	s.st.Kern = ks
	ns, err := m.Net.SnapshotState()
	if err != nil {
		return nil, fmt.Errorf("diva: snapshot: %w", err)
	}
	s.st.Net = ns
	w := m.localWords()
	s.st.Vars = make([]VarState, len(m.vars))
	s.data = make([]interface{}, len(m.vars))
	s.locals = make([]uint64, w*len(m.vars))
	for i, v := range m.vars {
		if v == nil {
			continue
		}
		if int(int32(v.Size)) != v.Size || int(int32(v.Creator)) != v.Creator {
			return nil, fmt.Errorf("diva: snapshot: variable %d has size %d and creator %d, past a snapshot's int32", v.ID, v.Size, v.Creator)
		}
		copy(s.locals[i*w:], v.local)
		s.st.Vars[i] = VarState{Present: true, Size: int32(v.Size), Creator: int32(v.Creator)}
		s.data[i] = v.Data
	}
	s.st.Barrier = BarrierState{
		Batched:  m.bar.batched,
		Cascaded: m.bar.cascaded,
		Aborted:  m.bar.aborted,
	}
	s.st.Caches = make([]CacheState, len(m.caches))
	for i := range m.caches {
		c := &m.caches[i]
		cs := CacheState{Evictions: c.evictions}
		if n := c.Len(); n > 0 {
			cs.Keys = make([]CacheKey, 0, n)
			for e := c.lru.prev; e != &c.lru; e = e.prev {
				cs.Keys = append(cs.Keys, CacheKey{Var: int32(e.v.ID), Node: e.node})
			}
		}
		s.st.Caches[i] = cs
	}
	if forker != nil {
		st, err := forker.SnapshotState(m.vars)
		if err != nil {
			return nil, fmt.Errorf("diva: snapshot: %w", err)
		}
		s.st.Strat = st
	}
	return s, nil
}

// Fork builds an independent machine resuming from the snapshot: running a
// workload on the fork is bit-identical to running it on the source
// machine. Any number of forks can be taken, concurrently. The fork
// borrows every variable: it makes its own record of one at the variable's
// first access (Machine.Var), or at once if a bounded cache holds a copy of
// it, since the cache links the record.
func (s *Snapshot) Fork(o ForkOptions) (*Machine, error) {
	cfg := s.cfg
	m, err := newMachine(cfg, s.plan)
	if err != nil {
		return nil, fmt.Errorf("diva: fork: %w", err)
	}
	st := &s.st
	if err := m.K.RestoreState(st.Kern); err != nil {
		return nil, fmt.Errorf("diva: fork: %w", err)
	}
	if err := m.Net.RestoreState(st.Net); err != nil {
		return nil, fmt.Errorf("diva: fork: %w", err)
	}
	m.RNG.SetState(st.RNG)
	m.vars = make([]*Variable, len(st.Vars))
	m.lender, m.lent = s, make([]uint64, (len(st.Vars)+63)/64)
	for i := range st.Vars {
		if st.Vars[i].Present {
			m.lent[i/64] |= 1 << (i % 64)
		}
	}
	m.bar.batched, m.bar.cascaded, m.bar.aborted = st.Barrier.Batched, st.Barrier.Cascaded, st.Barrier.Aborted
	if st.Strat != nil {
		f := m.Strat.(Forker) // same config built the same strategy type
		if err := f.RestoreState(st.Strat, st.Vars); err != nil {
			return nil, fmt.Errorf("diva: fork: %w", err)
		}
	}
	// Cache entries (only a strategy makes them) replay in the source
	// caches' LRU order, without triggering replacement.
	for node := range st.Caches {
		c := &m.caches[node]
		for _, key := range st.Caches[node].Keys {
			c.InsertRestored(m.Var(VarID(key.Var)), key.Node)
		}
		c.evictions = st.Caches[node].Evictions
	}
	if o.Reseed {
		m.RNG = xrand.New(o.Seed ^ seedSalt)
		m.Net.ReactReseed(o.Seed ^ reactSalt)
		if st.Strat != nil {
			m.Strat.(Forker).Reseed(o.Seed)
		}
	}
	return m, nil
}

// borrowed reports whether the fork still borrows variable id from its
// snapshot.
func (m *Machine) borrowed(id VarID) bool {
	return uint(id>>6) < uint(len(m.lent)) && m.lent[id>>6]>>(id&63)&1 == 1
}

// borrow makes the fork's own record of variable id, which it borrows from
// its snapshot, from the arenas a fresh variable's come from: the Variable,
// a copy of the captured local-copy bitmap, and the strategy's state.
// Freed or unknown ids panic.
func (m *Machine) borrow(id VarID) *Variable {
	if !m.borrowed(id) {
		panic(fmt.Sprintf("core: access to invalid variable %d", id))
	}
	m.lent[id>>6] &^= 1 << (id & 63)
	s, w := m.lender, m.localWords()
	vs := &s.st.Vars[id]
	v := m.newVar()
	*v = Variable{ID: id, Size: int(vs.Size), Creator: int(vs.Creator), Data: s.data[id], local: m.newLocal()}
	copy(v.local, s.locals[int(id)*w:])
	m.Strat.(Forker).RestoreVar(v)
	m.vars[id] = v
	return v
}

// borrowAll makes every variable the fork still borrows.
func (m *Machine) borrowAll() {
	for i, word := range m.lent {
		for ; word != 0; word &= word - 1 {
			m.borrow(VarID(i*64 + bits.TrailingZeros64(word)))
		}
	}
}
