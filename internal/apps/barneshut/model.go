package barneshut

import (
	"math"

	"diva/internal/core"
	"diva/internal/xrand"
)

// Body is the value of a body's global variable. Values are immutable:
// every update writes a fresh Body, carved from the run's blocks (values)
// and never rewritten once written.
type Body struct {
	Pos, Vel Vec3
	Mass     float64
	// Cost is the body's work count from the previous force-computation
	// phase, used by the costzones partitioning.
	Cost int64
}

// BodyBytes is the wire size of a body variable: 7 float64 + cost + tag.
const BodyBytes = 64

// Ref addresses a child of a cell: 0 is empty, n+1 refers to cell variable
// n, -(n+1) refers to body variable n.
type Ref int64

// MkCellRef and MkBodyRef build references.
func MkCellRef(id core.VarID) Ref { return Ref(int64(id) + 1) }
func MkBodyRef(id core.VarID) Ref { return Ref(-(int64(id) + 1)) }

// Empty reports whether the reference is unset.
func (r Ref) Empty() bool { return r == 0 }

// IsBody reports whether the reference names a body.
func (r Ref) IsBody() bool { return r < 0 }

// VarID returns the referenced variable.
func (r Ref) VarID() core.VarID {
	if r > 0 {
		return core.VarID(int64(r) - 1)
	}
	return core.VarID(-int64(r) - 1)
}

// Cell is the value of a cell's global variable: one node of the adaptive
// Barnes-Hut octree. Like a Body it is immutable: every update writes a
// fresh Cell, carved from the run's blocks and never rewritten once
// written. Center/Half give the cube of space the cell covers.
// COM, Mass and Cost are filled in by the center-of-mass phase; ChildCost
// lets the costzones traversal prune subtrees without reading them.
type Cell struct {
	Center Vec3
	Half   float64
	Level  int32
	Child  [8]Ref
	// Filled by the upward (center-of-mass) pass:
	COM       Vec3
	Mass      float64
	Cost      int64
	ChildCost [8]int64
}

// CellBytes is the wire size of a cell variable: geometry (32) + 8 child
// refs (32... 8×8=64) + COM/mass (32) + costs (8+64) as packed on the wire.
// We charge a round 160 bytes.
const CellBytes = 160

// octant returns the index of the sub-cube of (center) containing p, and
// the sub-cube's center for half-size h/2.
func octant(center Vec3, half float64, p Vec3) (int, Vec3) {
	idx := 0
	q := half / 2
	c := center
	if p.X >= center.X {
		idx |= 1
		c.X += q
	} else {
		c.X -= q
	}
	if p.Y >= center.Y {
		idx |= 2
		c.Y += q
	} else {
		c.Y -= q
	}
	if p.Z >= center.Z {
		idx |= 4
		c.Z += q
	} else {
		c.Z -= q
	}
	return idx, c
}

// subCenter returns the center of child octant idx of a cell.
func subCenter(center Vec3, half float64, idx int) Vec3 {
	q := half / 2
	c := center
	if idx&1 != 0 {
		c.X += q
	} else {
		c.X -= q
	}
	if idx&2 != 0 {
		c.Y += q
	} else {
		c.Y -= q
	}
	if idx&4 != 0 {
		c.Z += q
	} else {
		c.Z -= q
	}
	return c
}

// Plummer draws n bodies from the Plummer model, the initial condition the
// SPLASH-2 BARNES application uses (Aarseth's standard construction):
// masses 1/n, density ρ(r) ∝ (1+r²)^(-5/2), isotropic velocities drawn by
// von Neumann rejection from q²(1-q²)^(7/2).
func Plummer(n int, seed uint64) []Body {
	rng := xrand.New(seed)
	bodies := make([]Body, n)
	const mfrac = 0.999 // cut off the outermost mass fraction
	for i := range bodies {
		// Radius from the inverse cumulative mass profile.
		m := mfrac * rng.Float64()
		r := 1 / math.Sqrt(math.Pow(m, -2.0/3.0)-1)
		pos := randomOnSphere(rng).Scale(r)
		// Speed by rejection: g(q) = q²(1-q²)^(7/2) on [0,1].
		var q float64
		for {
			q = rng.Float64()
			g := q * q * math.Pow(1-q*q, 3.5)
			if 0.1*rng.Float64() < g {
				break
			}
		}
		speed := q * math.Sqrt2 * math.Pow(1+r*r, -0.25)
		vel := randomOnSphere(rng).Scale(speed)
		bodies[i] = Body{Pos: pos, Vel: vel, Mass: 1 / float64(n), Cost: 1}
	}
	// Shift to the center-of-mass frame.
	var cm, cv Vec3
	for _, b := range bodies {
		cm = cm.Add(b.Pos.Scale(b.Mass))
		cv = cv.Add(b.Vel.Scale(b.Mass))
	}
	for i := range bodies {
		bodies[i].Pos = bodies[i].Pos.Sub(cm)
		bodies[i].Vel = bodies[i].Vel.Sub(cv)
	}
	return bodies
}

// randomOnSphere draws a uniform direction.
func randomOnSphere(rng *xrand.RNG) Vec3 {
	for {
		v := Vec3{2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1}
		if d := v.Dot(v); d > 1e-12 && d <= 1 {
			return v.Scale(1 / math.Sqrt(d))
		}
	}
}

// UniformSphere draws n bodies uniformly from a unit ball at rest —
// a simpler initial condition used by some tests.
func UniformSphere(n int, seed uint64) []Body {
	rng := xrand.New(seed)
	bodies := make([]Body, n)
	for i := range bodies {
		r := math.Cbrt(rng.Float64())
		bodies[i] = Body{
			Pos:  randomOnSphere(rng).Scale(r),
			Mass: 1 / float64(n),
			Cost: 1,
		}
	}
	return bodies
}

// bounds returns a cube enclosing all positions, slightly padded.
type cube struct {
	Center Vec3
	Half   float64
}

func boundsOf(lo, hi Vec3) cube {
	c := lo.Add(hi).Scale(0.5)
	ext := hi.Sub(lo)
	half := math.Max(ext.X, math.Max(ext.Y, ext.Z)) / 2
	if half == 0 {
		half = 1
	}
	return cube{Center: c, Half: half * 1.0001}
}
