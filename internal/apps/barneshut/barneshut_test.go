package barneshut

import (
	"math"
	"testing"

	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/core/fixedhome"
	"diva/internal/decomp"
)

func newMachine(rows, cols int, f core.Factory, spec decomp.Spec) *core.Machine {
	return core.MustNewMachine(core.Config{
		Rows: rows, Cols: cols, Seed: 4242, Tree: spec, Strategy: f,
	})
}

func TestPlummerProperties(t *testing.T) {
	bodies := Plummer(500, 7)
	if len(bodies) != 500 {
		t.Fatalf("got %d bodies", len(bodies))
	}
	var mass float64
	var cm, cv Vec3
	for _, b := range bodies {
		mass += b.Mass
		cm = cm.Add(b.Pos.Scale(b.Mass))
		cv = cv.Add(b.Vel.Scale(b.Mass))
		if b.Cost != 1 {
			t.Fatal("initial body cost must be 1")
		}
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Fatalf("total mass %v, want 1", mass)
	}
	if cm.Norm() > 1e-9 || cv.Norm() > 1e-9 {
		t.Fatalf("not in center-of-mass frame: cm=%v cv=%v", cm, cv)
	}
	// Determinism.
	again := Plummer(500, 7)
	for i := range bodies {
		if bodies[i] != again[i] {
			t.Fatal("Plummer not deterministic")
		}
	}
	// Plummer: the cumulative mass profile M(r) = r³/(1+r²)^(3/2) puts
	// about 57.6% of the bodies within r = 1.5 and ~35% within r = 1.
	inside := 0
	for _, b := range bodies {
		if b.Pos.Norm() < 1.5 {
			inside++
		}
	}
	if inside < 240 || inside > 340 {
		t.Fatalf("%d/500 bodies within r=1.5, want ≈288", inside)
	}
}

func TestOctantSubCenterConsistent(t *testing.T) {
	center := Vec3{1, -2, 3}
	half := 4.0
	for idx := 0; idx < 8; idx++ {
		sc := subCenter(center, half, idx)
		// A point at the sub-center must map back to the same octant.
		got, gotCenter := octant(center, half, sc)
		if got != idx {
			t.Fatalf("octant(subCenter(%d)) = %d", idx, got)
		}
		if gotCenter != sc {
			t.Fatalf("octant returned center %v, want %v", gotCenter, sc)
		}
	}
}

func TestRefEncoding(t *testing.T) {
	for _, id := range []core.VarID{0, 1, 5, 1 << 20} {
		cr := MkCellRef(id)
		br := MkBodyRef(id)
		if cr.Empty() || br.Empty() {
			t.Fatal("non-empty ref reported empty")
		}
		if cr.IsBody() || !br.IsBody() {
			t.Fatal("ref kind confused")
		}
		if cr.VarID() != id || br.VarID() != id {
			t.Fatalf("ref round trip failed for %d", id)
		}
	}
	var zero Ref
	if !zero.Empty() {
		t.Fatal("zero ref not empty")
	}
}

// runSmall is a helper for the physics tests.
func runSmall(t *testing.T, rows, cols, n, steps int, theta, dt float64, f core.Factory) (*core.Machine, Result) {
	t.Helper()
	m := newMachine(rows, cols, f, decomp.Ary4)
	res, err := Run(m, Config{
		N: n, Steps: steps, MeasureFrom: steps, // no measurement needed
		Theta: theta, Dt: dt, Seed: 11,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// TestTreeStructure: after a run, the kept final tree contains every body
// exactly once, inside the cube of the cell that holds it, and cell
// geometry halves at each level.
func TestTreeStructure(t *testing.T) {
	m, res := runSmall(t, 2, 2, 64, 1, 1.0, 0, accesstree.Factory())
	seen := make(map[core.VarID]int)
	WalkTree(m, res.FinalRoot, func(ref Ref, depth int, cell *Cell) {
		if ref.IsBody() {
			seen[ref.VarID()]++
		}
	})
	if len(seen) != 64 {
		t.Fatalf("tree holds %d distinct bodies, want 64", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("body %d appears %d times", id, n)
		}
	}
	// Geometry: every body position within its containing cell cube.
	var checkCell func(c Cell)
	checkCell = func(c Cell) {
		for _, ch := range c.Child {
			if ch.Empty() {
				continue
			}
			if ch.IsBody() {
				b := *m.Var(ch.VarID()).Data.(*Body)
				d := b.Pos.Sub(c.Center)
				if math.Abs(d.X) > c.Half*1.0001 || math.Abs(d.Y) > c.Half*1.0001 || math.Abs(d.Z) > c.Half*1.0001 {
					t.Fatalf("body outside its cell: |d|=%v half=%v", d, c.Half)
				}
				continue
			}
			sub := *m.Var(ch.VarID()).Data.(*Cell)
			if math.Abs(sub.Half-c.Half/2) > 1e-12 {
				t.Fatalf("child half %v, parent half %v", sub.Half, c.Half)
			}
			if sub.Level != c.Level+1 {
				t.Fatalf("child level %d under parent level %d", sub.Level, c.Level)
			}
			checkCell(sub)
		}
	}
	checkCell(*m.Var(res.FinalRoot).Data.(*Cell))
}

// TestCOMCorrect: with Dt=0 the bodies do not move, so the final tree's
// root COM/mass must match the exact values.
func TestCOMCorrect(t *testing.T) {
	m, res := runSmall(t, 2, 2, 100, 1, 1.0, 0, accesstree.Factory())
	root := *m.Var(res.FinalRoot).Data.(*Cell)
	bodies := Plummer(100, 11)
	var mass float64
	var com Vec3
	for _, b := range bodies {
		mass += b.Mass
		com = com.Add(b.Pos.Scale(b.Mass))
	}
	com = com.Scale(1 / mass)
	if math.Abs(root.Mass-mass) > 1e-12 {
		t.Fatalf("root mass %v, want %v", root.Mass, mass)
	}
	if root.COM.Sub(com).Norm() > 1e-9 {
		t.Fatalf("root COM %v, want %v", root.COM, com)
	}
	if root.Cost != 100 {
		t.Fatalf("root cost %d, want 100 (initial body costs)", root.Cost)
	}
}

// TestForcesExactWithThetaZero: θ<0 opens every cell, so Barnes-Hut
// degenerates to the direct sum; one step must reproduce it exactly (up to
// floating-point association order).
func TestForcesExactWithThetaZero(t *testing.T) {
	const n = 48
	dt := 0.01
	m, res := runSmall(t, 2, 2, n, 1, -1, dt, accesstree.Factory())
	initial := Plummer(n, 11)
	want := DirectForces(initial, 0.05)
	final := FinalBodies(m, res)
	for i := range final {
		dv := final[i].Vel.Sub(initial[i].Vel).Scale(1 / dt)
		if dv.Sub(want[i]).Norm() > 1e-8*(1+want[i].Norm()) {
			t.Fatalf("body %d acceleration %v, want %v", i, dv, want[i])
		}
	}
}

// TestForcesAccurateWithThetaOne: θ=1 must approximate the direct sum with
// small error (a few percent on average).
func TestForcesAccurateWithThetaOne(t *testing.T) {
	const n = 256
	dt := 0.01
	m, res := runSmall(t, 2, 2, n, 1, 1.0, dt, accesstree.Factory())
	initial := Plummer(n, 11)
	want := DirectForces(initial, 0.05)
	final := FinalBodies(m, res)
	var relErr float64
	for i := range final {
		dv := final[i].Vel.Sub(initial[i].Vel).Scale(1 / dt)
		relErr += dv.Sub(want[i]).Norm() / (want[i].Norm() + 1e-12)
	}
	relErr /= n
	if relErr > 0.05 {
		t.Fatalf("mean relative force error %.3f with theta=1", relErr)
	}
	if relErr == 0 {
		t.Fatal("theta=1 produced exact forces; approximation not exercised")
	}
}

// TestEnergyConservation: a short integration must approximately conserve
// total energy.
func TestEnergyConservation(t *testing.T) {
	const n = 128
	m, res := runSmall(t, 2, 2, n, 4, 0.8, 0.005, accesstree.Factory())
	initial := Plummer(n, 11)
	e0 := Energy(initial, 0.05)
	e1 := Energy(FinalBodies(m, res), 0.05)
	if math.Abs(e1-e0) > 0.05*math.Abs(e0) {
		t.Fatalf("energy drifted from %v to %v", e0, e1)
	}
}

// TestCostzonesBalance: after a few steps the per-processor work counts
// must be roughly balanced and cover all bodies.
func TestCostzonesBalance(t *testing.T) {
	_, res := runSmall(t, 4, 4, 800, 3, 1.0, 0.01, accesstree.Factory())
	totalBodies := 0
	var totalCost, maxCost int64
	for p := range res.BodiesPerProc {
		totalBodies += res.BodiesPerProc[p]
		totalCost += res.CostPerProc[p]
		if res.CostPerProc[p] > maxCost {
			maxCost = res.CostPerProc[p]
		}
	}
	if totalBodies != 800 {
		t.Fatalf("costzones covers %d bodies, want 800", totalBodies)
	}
	avg := float64(totalCost) / float64(len(res.CostPerProc))
	if float64(maxCost) > 2.5*avg {
		t.Fatalf("cost imbalance: max %d vs average %.0f", maxCost, avg)
	}
}

// TestAdaptiveDepth: a clustered (Plummer) distribution subdivides deeper
// than the uniform log8(N) bound.
func TestAdaptiveDepth(t *testing.T) {
	_, res := runSmall(t, 2, 2, 512, 1, 1.0, 0, accesstree.Factory())
	if res.MaxDepth <= 3 {
		t.Fatalf("tree depth %d suspiciously shallow for a Plummer core", res.MaxDepth)
	}
	if res.Interactions == 0 {
		t.Fatal("no interactions counted")
	}
}

// TestBothStrategiesAgreePhysically: the data management strategy must not
// change the computed physics.
func TestBothStrategiesAgreePhysically(t *testing.T) {
	mAT, resAT := runSmall(t, 2, 2, 96, 2, 1.0, 0.01, accesstree.Factory())
	mFH, resFH := runSmall(t, 2, 2, 96, 2, 1.0, 0.01, fixedhome.Factory())
	at := FinalBodies(mAT, resAT)
	fh := FinalBodies(mFH, resFH)
	for i := range at {
		if at[i].Pos.Sub(fh[i].Pos).Norm() > 1e-9 {
			t.Fatalf("body %d position differs between strategies", i)
		}
	}
}

// TestAccessTreeCongestionLower: the paper's headline Barnes-Hut result at
// miniature scale.
func TestAccessTreeCongestionLower(t *testing.T) {
	run := func(f core.Factory, spec decomp.Spec) uint64 {
		m := newMachine(4, 4, f, spec)
		_, err := Run(m, Config{N: 400, Steps: 2, MeasureFrom: 2, Theta: 1.0, Dt: 0.01, Seed: 5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m.Net.Congestion(nil).MaxMsgs
	}
	at := run(accesstree.Factory(), decomp.Ary4)
	fh := run(fixedhome.Factory(), decomp.Ary4)
	if at >= fh {
		t.Fatalf("access tree congestion %d not below fixed home %d", at, fh)
	}
}

func TestDeterministicRun(t *testing.T) {
	run := func() float64 {
		m := newMachine(2, 2, accesstree.Factory(), decomp.Ary4)
		res, err := Run(m, Config{N: 64, Steps: 2, Theta: 1, Dt: 0.01, Seed: 3, MeasureFrom: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.ElapsedUS
	}
	if run() != run() {
		t.Fatal("nondeterministic run")
	}
}

func TestUniformSphereGenerator(t *testing.T) {
	bodies := UniformSphere(200, 3)
	for _, b := range bodies {
		if b.Pos.Norm() > 1.0001 {
			t.Fatal("body outside unit ball")
		}
		if b.Vel.Norm() != 0 {
			t.Fatal("uniform sphere bodies must start at rest")
		}
	}
}

func TestBoundsOf(t *testing.T) {
	c := boundsOf(Vec3{-1, 0, 0}, Vec3{3, 1, 1})
	if c.Center.X != 1 || c.Half < 2 || c.Half > 2.01 {
		t.Fatalf("boundsOf = %+v", c)
	}
	// Degenerate: single point.
	c = boundsOf(Vec3{5, 5, 5}, Vec3{5, 5, 5})
	if c.Half <= 0 {
		t.Fatal("degenerate bounds must have positive half")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := (Config{N: 10}).withDefaults()
	if c.Steps != 7 || c.MeasureFrom != 2 || c.Theta != 1.0 {
		t.Fatalf("defaults = %+v", c)
	}
}

// TestWithComputeForcePhaseDominates: with GCel-like interaction costs the
// force phase must dominate execution time, as in the paper (~78%).
func TestWithComputeForcePhaseDominates(t *testing.T) {
	m := newMachine(2, 2, accesstree.Factory(), decomp.Ary4)
	res, err := Run(m, Config{
		N: 200, Steps: 2, MeasureFrom: 2, Theta: 1.0, Dt: 0.01, Seed: 5,
		WithCompute: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ElapsedUS <= 0 {
		t.Fatal("no time elapsed")
	}
}

// DirectForces computes the exact O(N²) accelerations for a snapshot.
func DirectForces(bodies []Body, eps float64) []Vec3 {
	acc := make([]Vec3, len(bodies))
	for i := range bodies {
		for j := range bodies {
			if i == j {
				continue
			}
			acc[i] = acc[i].Add(accel(bodies[i].Pos, bodies[j].Pos, bodies[j].Mass, eps))
		}
	}
	return acc
}

// WalkTree applies fn to every (ref, depth) reachable from the final tree
// root, reading variables directly (outside the simulation), to validate
// the octree structure.
func WalkTree(m *core.Machine, root core.VarID, fn func(ref Ref, depth int, cell *Cell)) {
	var rec func(ref Ref, depth int)
	rec = func(ref Ref, depth int) {
		if ref.Empty() {
			return
		}
		if ref.IsBody() {
			fn(ref, depth, nil)
			return
		}
		// Hand the callback a copy: the stored *Cell is live simulator
		// state under the immutable-payload contract, and WalkTree's
		// callers must not be able to mutate it in place.
		c := *m.Var(ref.VarID()).Data.(*Cell)
		fn(ref, depth, &c)
		for _, ch := range c.Child {
			rec(ch, depth+1)
		}
	}
	rec(MkCellRef(root), 0)
}
