package diva

import (
	"fmt"

	"diva/fault"
	"diva/internal/decomp"
	"diva/spec"
	"diva/strategy"
	"diva/topology"
)

// The serializable run description, re-exported by alias: diva/spec
// decodes, defaults and validates it, this file turns a Spec into a
// machine and a workload. The divasim command line, the HTTP service and
// embedders all funnel through FromSpec, so one JSON document describes
// the same run everywhere.
type (
	// Spec describes one simulation run (see diva/spec).
	Spec = spec.Spec
	// WorkloadSpec selects the application and its knobs inside a Spec.
	WorkloadSpec = spec.Workload
	// NetSpec is the serializable form of NetParams inside a Spec.
	NetSpec = spec.Net
	// FaultSpec is the serializable fault-injection section of a Spec.
	FaultSpec = spec.Fault
)

// MachineFromSpec validates the machine half of s and builds the machine.
// extra options are applied after the spec-derived ones. The workload half
// is ignored, for embedders that drive their own programs.
func MachineFromSpec(s Spec, extra ...Option) (*Machine, error) {
	if err := s.ValidateMachine(); err != nil {
		return nil, err
	}
	n := s.Normalized()
	opts := []Option{
		WithTopologyName(n.Topology, n.Rows, n.Cols),
		WithSeed(n.Seed),
		WithCacheCapacity(n.CacheCapacity),
	}
	if n.Strategy == "" {
		opts = append(opts, WithTree(Ary2))
	} else {
		opts = append(opts, WithStrategyName(n.Strategy))
	}
	if n.Tree != "" {
		tree, _ := decomp.ByName(n.Tree) // known: the spec validated
		opts = append(opts, WithTree(tree))
	}
	if p := n.Net; p != nil {
		opts = append(opts, WithNetParams(NetParams(*p)))
	}
	if n.Recovery != "" { // reactive: a normalized spec spells oracle ""
		opts = append(opts, WithRecovery(n.Recovery), WithAckTransport(n.AckTimeoutUS, n.MaxRetries, n.Backoff))
	}
	if f := n.Fault; f != nil {
		if len(f.Events) > 0 {
			sched := make(fault.Schedule, len(f.Events))
			for i, ev := range f.Events {
				sched[i] = fault.Event{AtUS: ev.AtUS, A: ev.A, B: ev.B}
				for k := fault.LinkDown; k <= fault.NodeUp; k++ {
					if k.String() == ev.Kind {
						sched[i].Kind = k
					}
				}
			}
			opts = append(opts, WithFaults(sched))
		}
		if f.LinkFailures > 0 || f.NodeChurn > 0 {
			opts = append(opts, WithFaultGen(fault.Gen{
				LinkFailures: f.LinkFailures,
				NodeChurn:    f.NodeChurn,
				MeanDownUS:   f.MeanDownUS,
				HorizonUS:    f.HorizonUS,
			}))
		}
	}
	return New(append(opts, extra...)...)
}

// WorkloadFromSpec validates s and builds its workload with the
// documented default cost knobs (matmul 3.45 µs per multiply-add, bitonic
// 1.0 µs per comparison, stencil 0.5 µs per halo value).
func WorkloadFromSpec(s Spec) (Workload, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w := s.Normalized().Workload
	switch w.Name {
	case "matmul", "matmul-handopt":
		cfg := MatmulConfig{BlockInts: w.Block, WithCompute: w.Compute, OpUS: 3.45, Check: w.Check, Seed: w.Seed}
		if w.Name == "matmul-handopt" {
			return MatmulHandOpt(cfg), nil
		}
		return Matmul(cfg), nil
	case "bitonic", "bitonic-handopt":
		cfg := BitonicConfig{KeysPerProc: w.Keys, WithCompute: w.Compute, CompareUS: 1.0, Check: w.Check, Seed: w.Seed}
		if w.Name == "bitonic-handopt" {
			return BitonicHandOpt(cfg), nil
		}
		return Bitonic(cfg), nil
	case "barneshut":
		return BarnesHut(BarnesHutConfig{
			N: w.Bodies, Steps: w.Steps, MeasureFrom: w.MeasureFrom,
			Seed: w.Seed, WithCompute: true,
		}), nil
	case "stencil":
		return Stencil(StencilConfig{
			Iters: w.Iters, HaloInts: w.Halo, WithCompute: w.Compute,
			OpUS: 0.5, Check: w.Check, Seed: w.Seed,
		}), nil
	}
	return nil, fmt.Errorf("diva: unknown workload %q", w.Name) // unreachable after Validate
}

// FromSpec validates s and builds both the machine and the workload:
// the single entry point behind divasim, the HTTP service and embedders.
// extra options are applied to the machine after the spec-derived ones.
func FromSpec(s Spec, extra ...Option) (*Machine, Workload, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	w, err := WorkloadFromSpec(s)
	if err != nil {
		return nil, nil, err
	}
	m, err := MachineFromSpec(s, extra...)
	if err != nil {
		return nil, nil, err
	}
	return m, w, nil
}

// RegistryEntry describes one registered strategy, topology or workload
// for listings (divasim -list, the service's /v1/registries).
type RegistryEntry = spec.Registered

// Strategies lists the registered data management strategies.
func Strategies() []RegistryEntry {
	names := strategy.Names()
	out := make([]RegistryEntry, len(names))
	for i, n := range names {
		s, _ := strategy.Get(n)
		out[i] = RegistryEntry{Name: n, Summary: s.Summary}
	}
	return out
}

// Topologies lists the registered interconnect topologies.
func Topologies() []RegistryEntry {
	names := topology.Names()
	out := make([]RegistryEntry, len(names))
	for i, n := range names {
		s, _ := topology.Get(n)
		out[i] = RegistryEntry{Name: n, Summary: s.Summary}
	}
	return out
}

// Workloads lists the runnable workloads of the spec layer.
func Workloads() []RegistryEntry { return spec.Workloads() }
