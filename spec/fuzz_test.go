package spec_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"diva"
	"diva/spec"
	"diva/strategy"
	"diva/topology"
)

// FuzzSpec feeds spec documents through the whole decode path — Decode,
// Validate, Normalized — and builds the machine of every valid spec of at
// most 64 processors. Spec JSON crosses a trust boundary (divasim -spec,
// the service's request bodies): whatever it holds must end in a value or
// an error, never a panic. The seeds are small specs naming every
// registered topology, strategy, tree, workload, fault kind and recovery
// mode.
func FuzzSpec(f *testing.F) {
	base := func(w string) spec.Spec {
		return spec.Spec{Rows: 4, Cols: 4, Strategy: "at4", Workload: spec.Workload{Name: w, Block: 16, Keys: 16, Bodies: 32, Steps: 2, MeasureFrom: 1, Iters: 1, Halo: 8}}
	}
	var seeds []spec.Spec
	for _, name := range topology.Names() {
		s := base("matmul")
		s.Topology = name
		seeds = append(seeds, s)
	}
	for _, name := range strategy.Names() {
		s := base("bitonic")
		s.Strategy = name
		seeds = append(seeds, s)
	}
	for _, name := range spec.TreeNames() {
		s := base("barneshut")
		s.Tree = name
		seeds = append(seeds, s)
	}
	for _, name := range spec.WorkloadNames() {
		s := base(name)
		if spec.HandOptimized(name) {
			s.Strategy = "handopt"
		}
		seeds = append(seeds, s)
	}
	for _, kind := range spec.FaultKinds() {
		s := base("matmul")
		s.Fault = &spec.Fault{Events: []spec.FaultEvent{{AtUS: 100, Kind: kind, A: 1, B: 2}}, LinkFailures: 1, NodeChurn: 1}
		seeds = append(seeds, s)
	}
	healed := base("matmul")
	healed.Fault = &spec.Fault{Events: []spec.FaultEvent{
		{AtUS: 100, Kind: "link-down", A: 1, B: 2}, {AtUS: 100, Kind: "node-down", A: 5},
		{AtUS: 900, Kind: "link-up", A: 1, B: 2}, {AtUS: 900, Kind: "node-up", A: 5},
	}}
	seeds = append(seeds, healed)
	for _, mode := range spec.RecoveryModes() {
		s := base("matmul")
		s.Recovery = mode
		s.Net = &spec.Net{BytesPerUS: 10, HopLatencyUS: 1}
		seeds = append(seeds, s)
	}
	for _, s := range seeds {
		doc, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`{"workload":{"name":"matmul"},"strategy":"at4"}`))
	f.Add([]byte(`{"rows":-1,"cols":1e3,"fault":{},"workload":{}}`))

	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := spec.Decode(bytes.NewReader(doc))
		if err != nil {
			return
		}
		n := s.Normalized()
		if err := s.Validate(); err != nil || n.Rows*n.Cols > 64 {
			return
		}
		if m, err := diva.MachineFromSpec(s); err == nil && m.P() != n.Rows*n.Cols {
			t.Fatalf("a %d×%d spec built a machine of %d processors", n.Rows, n.Cols, m.P())
		}
	})
}
