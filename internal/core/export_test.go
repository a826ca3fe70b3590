package core

// NewMachineWithLimits builds a machine on a private plan whose route memo
// and position tables stop growing at the given sizes, for the tests of
// what a full plan falls back to.
func NewMachineWithLimits(cfg Config, routeBytes, posBytes int) (*Machine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return newMachine(cfg, newPlan(cfg.Topology, cfg.Tree, routeBytes, posBytes))
}
