package fixedhome

import (
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

type snapState struct {
	rng  xrand.State
	vars []varSnapState // indexed by VarID; present=false for freed variables
}

type varSnapState struct {
	present bool
	home    int
	owner   int
}

// SnapshotState implements core.Forker.
func (s *strategy) SnapshotState(vars []*core.Variable) (interface{}, error) {
	st := &snapState{rng: s.rng.State(), vars: make([]varSnapState, len(vars))}
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
		st.vars[i] = varSnapState{present: true, home: vs.home, owner: vs.owner}
	}
	for p := range s.lockWait {
		if s.lockWait[p].fut != nil {
			return nil, fmt.Errorf("fixedhome: processor %d is blocked in a lock", p)
		}
	}
	return st, nil
}

// RestoreState implements core.Forker.
func (s *strategy) RestoreState(state interface{}, vars []*core.Variable) error {
	st, ok := state.(*snapState)
	if !ok {
		return fmt.Errorf("fixedhome: foreign snapshot state %T", state)
	}
	if len(st.vars) != len(vars) {
		return fmt.Errorf("fixedhome: snapshot has %d variables, machine has %d", len(st.vars), len(vars))
	}
	s.rng.SetState(st.rng)
	states := make([]varState, core.LiveVars(vars))
	for i, vsn := range st.vars {
		if !vsn.present {
			continue
		}
		v := vars[i]
		if v == nil {
			return fmt.Errorf("fixedhome: snapshot has state for freed variable %d", i)
		}
		if p := s.m.P(); vsn.home < 0 || vsn.home >= p || vsn.owner < 0 || vsn.owner >= p {
			return fmt.Errorf("fixedhome: snapshot variable %d has home %d, owner %d on a %d-processor machine", i, vsn.home, vsn.owner, p)
		}
		states[0] = varState{home: vsn.home, owner: vsn.owner, lock: freeLock}
		v.State, states = &states[0], states[1:]
	}
	return nil
}

// Reseed implements core.Forker.
func (s *strategy) Reseed(seed uint64) {
	s.rng = xrand.New(seed ^ 0x632be59bd9b4e019)
}
