package core

import (
	"diva/internal/mesh"
	"diva/internal/wire"
)

// NewMachineWithLimits builds a machine on a private plan whose route memo
// and position tables stop growing at the given sizes, for the tests of
// what a full plan falls back to. cfg names its topology and tree.
func NewMachineWithLimits(cfg Config, routeBytes, posBytes int) (*Machine, error) {
	return newMachine(cfg, newPlan(cfg.Topology, cfg.Tree, mesh.NewRoutes(cfg.Topology, routeBytes), posBytes))
}

// SetClock overwrites the kernel clock a snapshot records, for the tests of
// what a stored snapshot may hold.
func SetClock(s *Snapshot, now float64) { s.st.Kern.Now = now }

// SetVarSize overwrites the size a snapshot records for variable id, for
// the tests of what a stored snapshot may hold.
func SetVarSize(s *Snapshot, id VarID, size int32) { s.st.Vars[id].Size = size }

// ReadVarState decodes b, one variable record of a state section, whole.
func ReadVarState(b []byte) (VarState, error) {
	r := wire.NewReader(b)
	v := readVarState(r)
	return v, r.Finish()
}

// LiveVarCount returns how many variables of m exist, those a fork still
// borrows included.
func LiveVarCount(m *Machine) int {
	n := 0
	for i, v := range m.vars {
		if v != nil || m.borrowed(VarID(i)) {
			n++
		}
	}
	return n
}

// SnapState is the part of a snapshot the state section carries before the
// variable values, for the codec tests.
type SnapState = snapState

// AppendSnapState appends st as a state section begins.
func AppendSnapState(st *SnapState) ([]byte, error) { return st.append(nil) }

// ReadSnapState reads what AppendSnapState wrote, all of it.
func ReadSnapState(b []byte) (*SnapState, error) {
	r := wire.NewReader(b)
	st := new(snapState)
	st.read(r)
	return st, r.Finish()
}

// BorrowAll makes every variable the fork m still borrows from its
// snapshot, as a query that touches them all would.
func BorrowAll(m *Machine) { m.borrowAll() }
