package fixedhome

import (
	"encoding/gob"
	"fmt"

	"diva/internal/core"
	"diva/internal/xrand"
)

// core.Forker implementation for the fixed home strategy. Captured per
// variable: the home and the owner — the holder set is the variable's
// local-copy bitmap, which the machine layer captures. A quiescent lock has
// no persistent state (free, empty queue), so locks only need the
// quiescence check; the transaction arena holds no live records at
// quiescence.

// State is the strategy's captured state (core.StratState): forks restore
// from it and a snapshot file carries it, whole, through encoding/gob.
type State struct {
	RNG  xrand.State
	Vars []VarState // indexed by VarID; the zero value marks a freed variable
}

// VarState is one variable's directory record. Values, not pointers: gob
// rejects nil elements in pointer slices, and freed variables leave holes.
type VarState struct {
	Present bool
	Home    int
	Owner   int
}

func init() {
	gob.RegisterName("diva/fixedhome.State", &State{})
}

// AppendTables implements core.StratState: the strategy has no bulk table.
func (st *State) AppendTables(b []byte) []byte { return b }

// SnapshotState implements core.Forker.
func (s *strategy) SnapshotState(vars []*core.Variable) (core.StratState, error) {
	st := &State{RNG: s.rng.State(), Vars: make([]VarState, len(vars))}
	for i, v := range vars {
		if v == nil {
			continue
		}
		vs := vstate(v)
		if vs.write != nil {
			return nil, fmt.Errorf("fixedhome: variable %d has a write in flight", v.ID)
		}
		if ls := &vs.lock; ls.held || ls.owner != -1 || ls.queue.Len() > 0 {
			return nil, fmt.Errorf("fixedhome: variable %d has lock activity in flight", v.ID)
		}
		st.Vars[i] = VarState{Present: true, Home: vs.home, Owner: vs.owner}
	}
	for p := range s.lockWait {
		if s.lockWait[p].fut != nil {
			return nil, fmt.Errorf("fixedhome: processor %d is blocked in a lock", p)
		}
	}
	return st, nil
}

// check validates a state against this strategy's machine; live reports
// whether the machine's variable i exists.
func (s *strategy) check(state core.StratState, vars int, live func(i int) bool) (*State, error) {
	st, ok := state.(*State)
	if !ok {
		return nil, fmt.Errorf("fixedhome: foreign snapshot state %T", state)
	}
	if len(st.Vars) != vars {
		return nil, fmt.Errorf("fixedhome: snapshot has %d variables, machine has %d", len(st.Vars), vars)
	}
	for i, vsn := range st.Vars {
		if vsn.Present != live(i) {
			return nil, fmt.Errorf("fixedhome: snapshot and machine disagree on whether variable %d exists", i)
		}
		if p := s.m.P(); vsn.Present && (vsn.Home < 0 || vsn.Home >= p || vsn.Owner < 0 || vsn.Owner >= p) {
			return nil, fmt.Errorf("fixedhome: snapshot variable %d has home %d, owner %d on a %d-processor machine", i, vsn.Home, vsn.Owner, p)
		}
	}
	return st, nil
}

// LoadState implements core.Forker.
func (s *strategy) LoadState(state core.StratState, tables []byte, vars []core.VarState) error {
	if len(tables) != 0 {
		return fmt.Errorf("fixedhome: snapshot has a %d-byte table section, the strategy has no tables", len(tables))
	}
	_, err := s.check(state, len(vars), func(i int) bool { return vars[i].Present })
	return err
}

// RestoreState implements core.Forker.
func (s *strategy) RestoreState(state core.StratState, vars []*core.Variable) error {
	st, err := s.check(state, len(vars), func(i int) bool { return vars[i] != nil })
	if err != nil {
		return err
	}
	s.rng.SetState(st.RNG)
	states := make([]varState, core.LiveVars(vars))
	for i, vsn := range st.Vars {
		if !vsn.Present {
			continue
		}
		states[0] = varState{home: vsn.Home, owner: vsn.Owner, lock: freeLock}
		vars[i].State, states = &states[0], states[1:]
	}
	return nil
}

// Reseed implements core.Forker.
func (s *strategy) Reseed(seed uint64) {
	s.rng = xrand.New(seed ^ 0x632be59bd9b4e019)
}
