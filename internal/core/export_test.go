package core

import "diva/internal/mesh"

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
func SetVarSize(s *Snapshot, id VarID, size int) { s.st.Vars[id].Size = size }

// LiveVarCount returns how many variables of m exist.
func LiveVarCount(m *Machine) int { return LiveVars(m.vars) }
