// Package barneshut implements the paper's third application (§3.3): the
// Barnes-Hut N-body simulation adapted from the SPLASH-2 benchmark suite,
// running on top of the DIVA library. Every body and every cell of the
// adaptive octree is a global variable; locks attached to the cells
// synchronize the concurrent tree construction; the costzones scheme
// partitions the bodies over the processors so that physical locality
// translates into topological locality (processor ident-numbers are the
// decomposition tree's leaf numbers).
//
// Each time step runs the six barrier-separated phases of the paper:
//
//  1. load the bodies into the tree;
//  2. upward pass to find the center of mass of the cells;
//  3. partition the bodies among the processors (costzones);
//  4. compute the forces on all bodies;
//  5. advance the body positions and velocities;
//  6. compute the new size of space (an all-reduce on the access tree).
package barneshut

import (
	"fmt"

	"diva/internal/core"
	"diva/internal/metrics"
)

// Config parameterizes a simulation run.
type Config struct {
	// N is the number of bodies.
	N int
	// Steps is the number of simulated time steps (the paper uses 7).
	Steps int
	// MeasureFrom is the first measured step (the paper measures the last
	// 5 of 7, i.e. MeasureFrom = 2). Steps before it are warmup.
	MeasureFrom int
	// Theta is the opening criterion: a cell of size l at distance d is
	// approximated by its center of mass when l/d < Theta. SPLASH uses
	// 1.0 (the default). Negative values open every cell — the traversal
	// degenerates to the exact direct sum (used by accuracy tests).
	Theta float64
	// Dt is the integration step; Eps the Plummer softening length.
	Dt, Eps float64
	// Seed generates the initial condition.
	Seed uint64
	// Uniform selects the uniform-ball initial condition instead of the
	// Plummer model.
	Uniform bool
	// WithCompute charges CPU time for force interactions, cell opening
	// tests and integration, calibrated to the GCel's (slow) processors.
	WithCompute bool
	// InteractionUS, OpenTestUS are the CPU costs per body-body/body-cell
	// interaction and per opening test when WithCompute is set.
	InteractionUS, OpenTestUS float64
}

func (c Config) withDefaults() Config {
	if c.Steps == 0 {
		c.Steps = 7
	}
	if c.MeasureFrom == 0 && c.Steps > 2 {
		c.MeasureFrom = 2
	}
	if c.Theta == 0 {
		c.Theta = 1.0
	}
	if c.Dt == 0 {
		c.Dt = 0.025
	}
	if c.Eps == 0 {
		c.Eps = 0.05
	}
	if c.InteractionUS == 0 {
		c.InteractionUS = 150
	}
	if c.OpenTestUS == 0 {
		c.OpenTestUS = 30
	}
	return c
}

// Phase names used with the metrics collector.
const (
	PhaseBuild     = "build"
	PhaseCOM       = "com"
	PhasePartition = "partition"
	PhaseForce     = "force"
	PhaseAdvance   = "advance"
	PhaseBounds    = "bounds"
)

// PhaseNames lists the per-step phases in execution order.
var PhaseNames = []string{PhaseBuild, PhaseCOM, PhasePartition, PhaseForce, PhaseAdvance, PhaseBounds}

// Result reports a finished run.
type Result struct {
	ElapsedUS float64
	// BodyVars are the body variables, in initial order; final state is in
	// their Data fields.
	BodyVars []core.VarID
	// FinalRoot is the root cell variable of the last step's tree (kept
	// for inspection; earlier trees are freed).
	FinalRoot core.VarID
	// Interactions counts force interactions in the last step.
	Interactions int64
	// MaxDepth is the deepest octree level seen.
	MaxDepth int
	// BodiesPerProc and CostPerProc describe the last costzones
	// partitioning, indexed by processor id.
	BodiesPerProc []int
	CostPerProc   []int64
}

// rootInfo is the payload of the ROOT variable through which processor 0
// publishes each step's fresh root cell.
type rootInfo struct {
	Root core.VarID
}

// bbox is the payload of the bounds reduction.
type bbox struct {
	Lo, Hi Vec3
	Some   bool
}

func combineBBox(a, b interface{}) interface{} {
	x, y := a.(bbox), b.(bbox)
	if !x.Some {
		return y
	}
	if !y.Some {
		return x
	}
	return bbox{Lo: x.Lo.Min(y.Lo), Hi: x.Hi.Max(y.Hi), Some: true}
}

func combineMax(a, b interface{}) interface{} {
	if a.(int) >= b.(int) {
		return a
	}
	return b
}

// procState is the per-processor application state.
type procState struct {
	vals         *values
	myBodies     []core.VarID
	cellsByLevel [][]core.VarID
	allCells     []core.VarID
	accs         []Vec3
	costs        []int64
	stack        []Ref
}

// addCell records a cell this processor created at level. Levels past the
// current length reuse the lists an earlier step left behind the length.
func (st *procState) addCell(v core.VarID, level int) {
	for n := len(st.cellsByLevel); n <= level; n++ {
		if n < cap(st.cellsByLevel) {
			st.cellsByLevel = st.cellsByLevel[:n+1]
			st.cellsByLevel[n] = st.cellsByLevel[n][:0]
		} else {
			st.cellsByLevel = append(st.cellsByLevel, nil)
		}
	}
	st.cellsByLevel[level] = append(st.cellsByLevel[level], v)
	st.allCells = append(st.allCells, v)
}

func (st *procState) resetCells() {
	st.cellsByLevel = st.cellsByLevel[:0]
	st.allCells = st.allCells[:0]
}

// Run executes the simulation on machine m, recording metrics into col
// (which may be nil). The machine must use a data management strategy.
func Run(m *core.Machine, cfg Config, col *metrics.Collector) (Result, error) {
	cfg = cfg.withDefaults()
	if m.Strat == nil {
		return Result{}, fmt.Errorf("barneshut: machine has no data management strategy")
	}
	if cfg.N < 1 {
		return Result{}, fmt.Errorf("barneshut: need at least one body")
	}
	P := m.P()

	var bodies []Body
	if cfg.Uniform {
		bodies = UniformSphere(cfg.N, cfg.Seed)
	} else {
		bodies = Plummer(cfg.N, cfg.Seed)
	}

	// Initial ownership: contiguous slices in decomposition leaf order.
	bodyVars := make([]core.VarID, cfg.N)
	for w := 0; w < P; w++ {
		lo, hi := w*cfg.N/P, (w+1)*cfg.N/P
		owner := m.Tree.ProcOfLeaf[w]
		for i := lo; i < hi; i++ {
			// The model's fresh slice is this run's alone: its records
			// are the bodies' first values.
			bodyVars[i] = m.AllocAt(owner, BodyBytes, &bodies[i])
		}
	}
	rootVar := m.AllocAt(0, 16, rootInfo{})

	vals := new(values)
	states := make([]*procState, P)
	for i := range states {
		states[i] = &procState{vals: vals}
	}
	wireOf := make([]int, P)
	for w, pr := range m.Tree.ProcOfLeaf {
		wireOf[pr] = w
	}

	var totalInteractions int64
	maxDepth := 0
	var finalRoot core.VarID
	bodiesPerProc := make([]int, P)
	costPerProc := make([]int64, P)

	runErr := m.Run(func(p *core.Proc) {
		st := states[p.ID]
		w := wireOf[p.ID]
		lo, hi := w*cfg.N/P, (w+1)*cfg.N/P
		st.myBodies = append(st.myBodies, bodyVars[lo:hi]...)

		// Initial size of space (same all-reduce as phase 6).
		space := reduceBounds(p, st)

		mark := func(end string) {
			if p.ID == 0 && col != nil {
				if end != "" {
					col.EndPhase(end)
				}
			}
		}
		open := func() {
			if p.ID == 0 && col != nil {
				col.StartPhase()
			}
		}

		for step := 0; step < cfg.Steps; step++ {
			if p.ID == 0 && col != nil && step == cfg.MeasureFrom {
				col.Baseline()
			}

			// --- Phase 1: build the tree ---
			open()
			var root core.VarID
			if p.ID == 0 {
				root = p.Alloc(CellBytes, vals.cells.new(Cell{Center: space.Center, Half: space.Half}))
				st.addCell(root, 0)
				p.Write(rootVar, rootInfo{Root: root})
			}
			p.Barrier()
			root = p.Read(rootVar).(rootInfo).Root
			for _, bv := range st.myBodies {
				d := insertBody(p, cfg, st, root, bv)
				if d > maxDepth {
					maxDepth = d
				}
			}
			p.Barrier()
			mark(PhaseBuild)

			// --- Phase 2: centers of mass, deepest level first ---
			open()
			myMax := len(st.cellsByLevel) - 1
			maxLevel := p.BarrierReduce(myMax, 8, combineMax).(int)
			for lvl := maxLevel; lvl >= 0; lvl-- {
				if lvl >= 0 && lvl < len(st.cellsByLevel) {
					for _, cv := range st.cellsByLevel[lvl] {
						computeCOM(p, cfg, st, cv)
					}
				}
				p.Barrier()
			}
			mark(PhaseCOM)

			// --- Phase 3: costzones partitioning ---
			open()
			costzones(p, cfg, st, root, w, P)
			p.Barrier()
			mark(PhasePartition)

			// --- Phase 4: force computation ---
			open()
			inter := forces(p, cfg, st, root)
			if step == cfg.Steps-1 {
				totalInteractions += inter
			}
			p.Barrier()
			mark(PhaseForce)

			// --- Phase 5: advance bodies ---
			open()
			advance(p, cfg, st)
			p.Barrier()
			mark(PhaseAdvance)

			// --- Phase 6: new size of space ---
			open()
			space = reduceBounds(p, st)
			mark(PhaseBounds)

			// Reclaim this step's tree (every processor frees the cells it
			// created; the final step's tree is kept for inspection).
			if step < cfg.Steps-1 {
				for _, cv := range st.allCells {
					p.M.Free(cv)
				}
				st.resetCells()
			} else {
				if p.ID == 0 {
					finalRoot = root
				}
				bodiesPerProc[p.ID] = len(st.myBodies)
				for _, c := range st.costs {
					costPerProc[p.ID] += c
				}
			}
		}
	})
	if runErr != nil {
		return Result{}, runErr
	}
	return Result{
		ElapsedUS:     m.Elapsed(),
		BodyVars:      bodyVars,
		FinalRoot:     finalRoot,
		Interactions:  totalInteractions,
		MaxDepth:      maxDepth,
		BodiesPerProc: bodiesPerProc,
		CostPerProc:   costPerProc,
	}, nil
}

// maxTreeDepth bounds octree subdivision; two distinct float64 positions
// always separate well before this depth.
const maxTreeDepth = 96
