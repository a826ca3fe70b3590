package diva

import (
	"diva/internal/apps/barneshut"
	"diva/internal/apps/bitonic"
	"diva/internal/apps/matmul"
	"diva/internal/apps/stencil"
)

// Workload is an application that runs on a simulated machine. The three
// applications of the paper's evaluation — matrix multiplication, bitonic
// sorting, Barnes-Hut — implement it, so any of them runs on any
// (topology × strategy) machine through one driver:
//
//	m, err := diva.New(diva.WithTopologyName("torus", 8, 8),
//		diva.WithStrategyName("at4"))
//	...
//	res, err := diva.BarnesHut(diva.BarnesHutConfig{N: 4000}).Run(m, nil)
type Workload interface {
	// Name identifies the workload in reports ("matmul", ...).
	Name() string
	// Run executes the workload to completion on m and reports the
	// simulated outcome. col may be nil; when non-nil, workloads with
	// phases record per-phase metrics into it.
	Run(m *Machine, col *Collector) (Result, error)
}

// Result is the part of a run's outcome every workload reports.
type Result struct {
	// ElapsedUS is the simulated execution time in microseconds.
	ElapsedUS float64
	// Verified is set when the workload's Check knob was on and the
	// output matched the sequential reference. Workloads without a check
	// (Barnes-Hut) leave it false.
	Verified bool
	// Detail holds the workload-specific result: a MatmulResult,
	// BitonicResult or BarnesHutResult.
	Detail interface{}
}

// The workload configuration and result types, re-exported by alias.
type (
	// MatmulConfig parameterizes the matrix square (§3.1 of the paper).
	MatmulConfig = matmul.Config
	// MatmulResult is the matrix square's detailed result.
	MatmulResult = matmul.Result
	// BitonicConfig parameterizes bitonic sorting (§3.2).
	BitonicConfig = bitonic.Config
	// BitonicResult is the sorting run's detailed result.
	BitonicResult = bitonic.Result
	// Comparator is one compare-exchange of the bitonic circuit.
	Comparator = bitonic.Comparator
	// BarnesHutConfig parameterizes the N-body simulation (§3.3).
	BarnesHutConfig = barneshut.Config
	// BarnesHutResult is the N-body run's detailed result (octree depth,
	// interactions, costzones balance, final body variables).
	BarnesHutResult = barneshut.Result
	// Body is one N-body particle (position, velocity, mass).
	Body = barneshut.Body
	// Vec3 is the 3-vector of the N-body model.
	Vec3 = barneshut.Vec3
	// StencilConfig parameterizes the iterative halo exchange.
	StencilConfig = stencil.Config
	// StencilResult is the halo exchange's detailed result.
	StencilResult = stencil.Result
)

// workload implements Workload from a name and a run closure.
type workload struct {
	name string
	run  func(m *Machine, col *Collector) (Result, error)
}

func (w workload) Name() string { return w.name }

func (w workload) Run(m *Machine, col *Collector) (Result, error) {
	return w.run(m, col)
}

// Matmul returns the paper's first application: the blocked matrix square,
// communicating through the machine's data management strategy.
func Matmul(cfg MatmulConfig) Workload {
	return workload{name: "matmul", run: func(m *Machine, _ *Collector) (Result, error) {
		res, err := matmul.RunDSM(m, cfg)
		if err != nil {
			return Result{}, err
		}
		return Result{ElapsedUS: res.ElapsedUS, Verified: res.Verified, Detail: res}, nil
	}}
}

// MatmulHandOpt is Matmul with the hand-optimized message passing program
// of the paper's comparison (full knowledge of the access pattern, no
// shared variables; the machine needs no strategy, but a 2D mesh).
func MatmulHandOpt(cfg MatmulConfig) Workload {
	return workload{name: "matmul-handopt", run: func(m *Machine, _ *Collector) (Result, error) {
		res, err := matmul.RunHandOpt(m, cfg)
		if err != nil {
			return Result{}, err
		}
		return Result{ElapsedUS: res.ElapsedUS, Verified: res.Verified, Detail: res}, nil
	}}
}

// Bitonic returns the paper's second application: bitonic sorting, one
// circuit wire per processor, keys in global variables.
func Bitonic(cfg BitonicConfig) Workload {
	return workload{name: "bitonic", run: func(m *Machine, _ *Collector) (Result, error) {
		res, err := bitonic.RunDSM(m, cfg)
		if err != nil {
			return Result{}, err
		}
		return Result{ElapsedUS: res.ElapsedUS, Verified: res.Verified, Detail: res}, nil
	}}
}

// BitonicHandOpt is Bitonic with the hand-optimized message passing
// program (direct partner exchanges, no shared variables).
func BitonicHandOpt(cfg BitonicConfig) Workload {
	return workload{name: "bitonic-handopt", run: func(m *Machine, _ *Collector) (Result, error) {
		res, err := bitonic.RunHandOpt(m, cfg)
		if err != nil {
			return Result{}, err
		}
		return Result{ElapsedUS: res.ElapsedUS, Verified: res.Verified, Detail: res}, nil
	}}
}

// BarnesHut returns the paper's third application: the SPLASH-2 derived
// N-body simulation (octree under per-cell locks, costzones partitioning).
// It records per-phase metrics into col when one is passed.
func BarnesHut(cfg BarnesHutConfig) Workload {
	return workload{name: "barneshut", run: func(m *Machine, col *Collector) (Result, error) {
		if col == nil {
			col = NewCollector(m)
		}
		res, err := barneshut.Run(m, cfg, col)
		if err != nil {
			return Result{}, err
		}
		return Result{ElapsedUS: res.ElapsedUS, Detail: res}, nil
	}}
}

// Stencil returns the iterative halo-exchange kernel: nearest-neighbor
// messages plus a global barrier per iteration, hand-optimized message
// passing only (the machine needs no strategy).
func Stencil(cfg StencilConfig) Workload {
	return workload{name: "stencil", run: func(m *Machine, _ *Collector) (Result, error) {
		res, err := stencil.Run(m, cfg)
		if err != nil {
			return Result{}, err
		}
		return Result{ElapsedUS: res.ElapsedUS, Verified: res.Verified, Detail: res}, nil
	}}
}

// BitonicCircuit returns Batcher's bitonic sorting circuit for p wires
// (p a power of two) as steps of parallel comparators.
func BitonicCircuit(p int) [][]Comparator { return bitonic.Circuit(p) }

// Plummer samples n bodies from the Plummer model (the paper's initial
// condition), deterministically from seed.
func Plummer(n int, seed uint64) []Body { return barneshut.Plummer(n, seed) }

// UniformSphere samples n bodies uniformly from a ball, deterministically
// from seed.
func UniformSphere(n int, seed uint64) []Body { return barneshut.UniformSphere(n, seed) }

// Energy returns the total energy (kinetic + softened potential) of a
// body snapshot; approximately conserved by the integrator for small Dt.
func Energy(bodies []Body, eps float64) float64 { return barneshut.Energy(bodies, eps) }

// FinalBodies extracts the body state after a Barnes-Hut run, in initial
// order.
func FinalBodies(m *Machine, res BarnesHutResult) []Body { return barneshut.FinalBodies(m, res) }
