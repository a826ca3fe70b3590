package fixedhome

import (
	"fmt"

	"diva/internal/core"
	"diva/internal/wire"
	"diva/internal/xrand"
)

// core.Forker implementation for the fixed home strategy. Captured per
// variable: the home and the owner — the holder set is the variable's
// local-copy bitmap, which the machine layer captures. A quiescent lock has
// no persistent state (free, empty queue), so locks only need the
// quiescence check; the transaction arena holds no live records at
// quiescence. A fork lends the variables: RestoreState copies the random
// stream and keeps the state, and RestoreVar builds a variable's record
// from it when the fork first reaches the variable.

// State is the strategy's captured state (core.StratState): forks restore
// from it and a snapshot file carries it, whole, in the state section
// (AppendState).
type State struct {
	RNG  xrand.State
	Vars []VarState // indexed by VarID; the zero value marks a freed variable
}

// VarState is one variable's directory record. Values, not pointers: freed
// variables leave holes, zero values, in State.Vars.
type VarState struct {
	Present bool
	Home    int
	Owner   int
}

// AppendTables implements core.StratState: the strategy has no bulk table.
func (st *State) AppendTables(b []byte) []byte { return b }

// AppendState implements core.StratState.
func (st *State) AppendState(b []byte) []byte {
	return wire.AppendSlice(st.RNG.Append(b), st.Vars, func(b []byte, v VarState) []byte {
		b = wire.AppendBool(b, v.Present)
		if !v.Present {
			return b // a freed variable is one zero byte
		}
		return wire.AppendInt(wire.AppendInt(b, v.Home), v.Owner)
	})
}

// ReadState reads a State that AppendState wrote.
func ReadState(r *wire.Reader) *State {
	return &State{RNG: xrand.ReadState(r), Vars: wire.ReadSlice(r, 1, func(r *wire.Reader) VarState {
		if !r.Bool() {
			return VarState{}
		}
		return VarState{Present: true, Home: r.Int(), Owner: r.Int()}
	})}
}

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

// check validates a state against this strategy's machine and the
// snapshot's variable records vars.
func (s *strategy) check(state core.StratState, vars []core.VarState) (*State, error) {
	st, ok := state.(*State)
	if !ok {
		return nil, fmt.Errorf("fixedhome: foreign snapshot state %T", state)
	}
	if len(st.Vars) != len(vars) {
		return nil, fmt.Errorf("fixedhome: snapshot has %d variables, machine has %d", len(st.Vars), len(vars))
	}
	for i, vsn := range st.Vars {
		if vsn.Present != vars[i].Present {
			return nil, fmt.Errorf("fixedhome: snapshot and machine disagree on whether variable %d exists", i)
		}
		if p := s.m.P(); vsn.Present && (vsn.Home < 0 || vsn.Home >= p || vsn.Owner < 0 || vsn.Owner >= p) {
			return nil, fmt.Errorf("fixedhome: snapshot variable %d has home %d, owner %d on a %d-processor machine", i, vsn.Home, vsn.Owner, p)
		}
	}
	return st, nil
}

// LoadState implements core.Forker.
func (s *strategy) LoadState(state, tables []byte, vars []core.VarState) (core.StratState, error) {
	if len(tables) != 0 {
		return nil, fmt.Errorf("fixedhome: snapshot has a %d-byte table section, the strategy has no tables", len(tables))
	}
	r := wire.NewReader(state)
	st := ReadState(r)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("fixedhome: decode snapshot state: %w", err)
	}
	return s.check(st, vars)
}

// RestoreState implements core.Forker.
func (s *strategy) RestoreState(state core.StratState, vars []core.VarState) error {
	st, err := s.check(state, vars)
	if err != nil {
		return err
	}
	s.rng.SetState(st.RNG)
	s.lent = st
	return nil
}

// RestoreVar implements core.Forker, with a record from the arena
// InitVar's come from.
func (s *strategy) RestoreVar(v *core.Variable) {
	vsn := &s.lent.Vars[v.ID]
	vs := s.states.Acquire()
	*vs = varState{home: vsn.Home, owner: vsn.Owner, lock: freeLock}
	v.State = vs
}

// Reseed implements core.Forker.
func (s *strategy) Reseed(seed uint64) {
	s.rng = xrand.New(seed ^ 0x632be59bd9b4e019)
}
