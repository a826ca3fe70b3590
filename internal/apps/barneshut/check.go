package barneshut

import (
	"math"

	"diva/internal/core"
)

// This file provides the computations an embedding application uses to
// check the simulated physics.

// Energy returns the total energy (kinetic + softened potential) of a
// snapshot. Approximately conserved by the integrator for small Dt.
func Energy(bodies []Body, eps float64) float64 {
	var kin, pot float64
	for i := range bodies {
		v := bodies[i].Vel
		kin += 0.5 * bodies[i].Mass * v.Dot(v)
		for j := i + 1; j < len(bodies); j++ {
			d := bodies[i].Pos.Sub(bodies[j].Pos)
			r2 := d.Dot(d) + eps*eps
			pot -= bodies[i].Mass * bodies[j].Mass / math.Sqrt(r2)
		}
	}
	return kin + pot
}

// FinalBodies extracts the body values after a run, in allocation order.
func FinalBodies(m *core.Machine, res Result) []Body {
	out := make([]Body, len(res.BodyVars))
	for i, v := range res.BodyVars {
		out[i] = *m.Var(v).Data.(*Body)
	}
	return out
}
