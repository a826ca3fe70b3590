package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"diva/internal/mesh"
	"diva/internal/sim"
	"diva/internal/wire"
	"diva/internal/xrand"
)

// The serialized form of a machine snapshot, for on-disk persistence
// (diva/snapstore). A Snapshot pins the machine Config, which holds a
// Topology interface and a Strategy factory function — neither is
// serializable — so the sections carry only the simulated state; the store
// persists the machine's spec document alongside them and rebuilds an
// identically configured machine before reading them back
// (SnapshotFromWire). There is no second representation: the sections are
// encoded from, and decoded into, the very values Fork restores from, and
// those keep the shapes the machine holds — the network's inbox queues back
// to back, its reactive channel table as one list, a remapped variable's
// positions one slot a tree node.

// Sections is the bulk numeric state of a snapshot as the raw
// little-endian words a snapshot file holds; everything irregular follows
// as the state section (AppendState).
type Sections struct {
	// Tables is the strategy's bulk table section (StratState.AppendTables;
	// every access-tree node table, in variable order).
	Tables []byte
	// Locals holds the local-copy bitmaps of the live variables, one
	// uint64 per word, in variable order (a snapshot holds them by id,
	// freed variables' included).
	Locals []byte

	snap *Snapshot
}

// Wire converts the snapshot's bulk state to its serialized sections. The
// conversion itself cannot fail; what can — a value of a type without a
// codec — surfaces from AppendState.
func (s *Snapshot) Wire() (*Sections, error) {
	w := &Sections{snap: s}
	if s.st.Strat != nil {
		w.Tables = s.st.Strat.AppendTables(nil)
	}
	words := s.localWords()
	w.Locals = make([]byte, 0, 8*len(s.locals))
	for i := range s.st.Vars {
		if s.st.Vars[i].Present {
			for _, x := range s.locals[i*words : (i+1)*words] {
				w.Locals = binary.LittleEndian.AppendUint64(w.Locals, x)
			}
		}
	}
	return w, nil
}

// AppendState appends the state section to b: the snapshot's remaining
// state (kernel, network, machine RNG, per-variable scalars, barrier,
// caches), the variable values (wire.AppendValues), then, to the section's
// end, the strategy's own bytes (StratState.AppendState; none on a machine
// without a strategy). It fails when a variable value or a queued message
// payload has a type no package registered a codec for.
func (w *Sections) AppendState(b []byte) ([]byte, error) {
	st := &w.snap.st
	b, err := st.append(b)
	if err != nil {
		return b, fmt.Errorf("diva: encode snapshot: %w", err)
	}
	if b, err = wire.AppendValues(b, w.snap.data); err != nil {
		return b, fmt.Errorf("diva: encode snapshot: variable values: %w", err)
	}
	if st.Strat != nil {
		b = st.Strat.AppendState(b)
	}
	return b, nil
}

// append appends every field but Strat, which AppendState writes last.
func (st *snapState) append(b []byte) ([]byte, error) {
	b = st.Kern.Append(b)
	b, err := st.Net.Append(b)
	if err != nil {
		return b, err
	}
	b = st.RNG.Append(b)
	b = wire.AppendSlice(b, st.Vars, appendVarState)
	b = wire.AppendUvarint(b, st.Barrier.Batched)
	b = wire.AppendUvarint(b, st.Barrier.Cascaded)
	b = wire.AppendUvarint(b, st.Barrier.Aborted)
	return wire.AppendSlice(b, st.Caches, appendCacheState), nil
}

// read reads what append wrote.
func (st *snapState) read(r *wire.Reader) {
	st.Kern = sim.ReadKernelState(r)
	st.Net = mesh.ReadNetworkState(r)
	st.RNG = xrand.ReadState(r)
	st.Vars = wire.ReadSlice(r, 1, readVarState)
	st.Barrier = BarrierState{Batched: r.Uvarint(), Cascaded: r.Uvarint(), Aborted: r.Uvarint()}
	st.Caches = wire.ReadSlice(r, 2, readCacheState)
}

// A freed variable is one zero byte.
func appendVarState(b []byte, v VarState) []byte {
	b = wire.AppendBool(b, v.Present)
	if !v.Present {
		return b
	}
	return wire.AppendInt32(wire.AppendInt32(b, v.Size), v.Creator)
}

func readVarState(r *wire.Reader) VarState {
	if !r.Bool() {
		return VarState{}
	}
	return VarState{Present: true, Size: r.Int32(), Creator: r.Int32()}
}

func appendCacheState(b []byte, c CacheState) []byte {
	b = wire.AppendSlice(b, c.Keys, func(b []byte, k CacheKey) []byte {
		return wire.AppendInt(wire.AppendInt32(b, k.Var), k.Node)
	})
	return wire.AppendUvarint(b, c.Evictions)
}

func readCacheState(r *wire.Reader) CacheState {
	return CacheState{
		Keys:      wire.ReadSlice(r, 2, func(r *wire.Reader) CacheKey { return CacheKey{Var: r.Int32(), Node: r.Int()} }),
		Evictions: r.Uvarint(),
	}
}

// SnapshotFromWire reconstructs a Snapshot from its serialized form: the
// two raw sections and the state section (AppendState). It pins the Config
// and the Plan of m, a machine freshly built from the machine description
// the snapshot was captured under (the store keeps that description
// alongside the sections); m itself is not touched. Everything Fork relies
// on is validated against m here — network and strategy shape, cache
// count and keys, bitmap words — so the snapshot returned
// forks without error.
func SnapshotFromWire(m *Machine, tables, locals, state []byte) (*Snapshot, error) {
	s := &Snapshot{cfg: m.Cfg, plan: m.Plan}
	st := &s.st
	r := wire.NewReader(state)
	st.read(r)
	s.data = r.Values(len(st.Vars))
	strat := r.Rest()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("diva: decode snapshot: %w", err)
	}
	if now := st.Kern.Now; !(now >= 0 && now <= math.MaxFloat64) {
		return nil, fmt.Errorf("diva: stored kernel clock reads %v", now)
	}
	if err := m.Net.CheckState(st.Net); err != nil {
		return nil, err
	}
	if len(st.Caches) != len(m.caches) {
		return nil, fmt.Errorf("diva: stored snapshot has %d caches, machine has %d", len(st.Caches), len(m.caches))
	}
	for i := range st.Caches {
		for _, key := range st.Caches[i].Keys {
			if m.Strat == nil {
				return nil, fmt.Errorf("diva: stored snapshot has cache keys but no strategy state")
			}
			if int(key.Var) < 0 || int(key.Var) >= len(st.Vars) || !st.Vars[key.Var].Present {
				return nil, fmt.Errorf("diva: stored cache entry for unknown variable %d", key.Var)
			}
		}
	}

	// The bitmap is the fixed home strategy's copy directory: a bit past
	// the last processor would address a node that does not exist.
	words, live := m.localWords(), 0
	for i := range st.Vars {
		if !st.Vars[i].Present {
			if s.data[i] != nil {
				return nil, fmt.Errorf("diva: stored snapshot has a value for freed variable %d", i)
			}
			continue
		}
		if st.Vars[i].Size < 0 {
			return nil, fmt.Errorf("diva: stored variable %d has size %d", i, st.Vars[i].Size)
		}
		live++
	}
	if len(locals) != 8*words*live {
		return nil, fmt.Errorf("diva: stored bitmap section has %d bytes, %d variables of %d words need %d", len(locals), live, words, 8*words*live)
	}
	if tail := uint(m.P()) & 63; tail != 0 {
		for i := 8 * (words - 1); i < len(locals); i += 8 * words {
			if binary.LittleEndian.Uint64(locals[i:])>>tail != 0 {
				return nil, fmt.Errorf("diva: stored snapshot marks a copy beyond processor %d", m.P()-1)
			}
		}
	}
	s.locals = make([]uint64, words*len(st.Vars))
	for i := range st.Vars {
		if st.Vars[i].Present {
			for j := i * words; j < (i+1)*words; j++ {
				s.locals[j] = binary.LittleEndian.Uint64(locals)
				locals = locals[8:]
			}
		}
	}
	if m.Strat != nil {
		forker, ok := m.Strat.(Forker)
		if !ok {
			return nil, fmt.Errorf("diva: strategy %q does not support snapshot/fork", m.Strat.Name())
		}
		var err error
		if st.Strat, err = forker.LoadState(strat, tables, st.Vars); err != nil {
			return nil, err
		}
	} else if len(tables) != 0 || len(strat) != 0 || live != 0 {
		return nil, fmt.Errorf("diva: stored snapshot has variables or strategy state but the machine has no strategy")
	}
	return s, nil
}
