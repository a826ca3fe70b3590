// Tests for the Spec funnel: a spec-built run must be bit-identical to
// the same run built through functional options, and every workload and
// tree name the spec layer lists must build. The spec layer reads the
// library's own name tables, so there is no second copy to keep in step.
package diva_test

import (
	"testing"

	"diva"
	"diva/spec"
	"diva/strategy"
	"diva/topology"
)

// TestFromSpecMatchesOptions pins that FromSpec and hand-built options
// describe the identical run (event-order fingerprint and elapsed time).
func TestFromSpecMatchesOptions(t *testing.T) {
	s := diva.Spec{
		Topology: "torus", Rows: 8, Cols: 8, Strategy: "at4",
		Seed:     1999,
		Workload: diva.WorkloadSpec{Name: "bitonic", Keys: 16, Check: true},
	}
	ms, ws, err := diva.FromSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	resS, err := ws.Run(ms, nil)
	if err != nil {
		t.Fatal(err)
	}

	mo := diva.MustNew(
		diva.WithTopologyName("torus", 8, 8),
		diva.WithStrategyName("at4"),
		diva.WithSeed(1999),
	)
	wo := diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16, CompareUS: 1.0, Check: true, Seed: 1999})
	resO, err := wo.Run(mo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ms.K.Fingerprint() != mo.K.Fingerprint() {
		t.Errorf("spec run fingerprint %#x != option run %#x", ms.K.Fingerprint(), mo.K.Fingerprint())
	}
	if resS.ElapsedUS != resO.ElapsedUS {
		t.Errorf("spec run elapsed %v != option run %v", resS.ElapsedUS, resO.ElapsedUS)
	}
	if !resS.Verified {
		t.Error("spec run not verified")
	}
}

// TestFromSpecEveryWorkload pins that every registered workload name
// builds and runs from a small spec.
func TestFromSpecEveryWorkload(t *testing.T) {
	for _, w := range spec.WorkloadNames() {
		w := w
		t.Run(w, func(t *testing.T) {
			s := diva.Spec{Rows: 4, Cols: 4, Seed: 1, Workload: diva.WorkloadSpec{
				Name: w, Block: 16, Keys: 8, Bodies: 64, Steps: 2, MeasureFrom: 1, Iters: 2, Halo: 16,
			}}
			if !spec.HandOptimized(w) {
				s.Strategy = "at4"
			}
			m, wl, err := diva.FromSpec(s)
			if err != nil {
				t.Fatal(err)
			}
			if wl.Name() != w {
				t.Fatalf("workload %q built %q", w, wl.Name())
			}
			if _, err := wl.Run(m, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFromSpecRejectsInvalid pins the typed validation error surface.
func TestFromSpecRejectsInvalid(t *testing.T) {
	_, _, err := diva.FromSpec(diva.Spec{Workload: diva.WorkloadSpec{Name: "matmul"}})
	if err == nil {
		t.Fatal("want a validation error (DSM workload without strategy)")
	}
	if _, ok := err.(*spec.ValidationError); !ok {
		t.Fatalf("want *spec.ValidationError, got %T: %v", err, err)
	}
}

// TestSpecNameTablesInLockstep pins that every tree name the spec layer
// lists builds a machine on that tree.
func TestSpecNameTablesInLockstep(t *testing.T) {
	for _, n := range spec.TreeNames() {
		s := diva.Spec{Tree: n, Strategy: "at2", Workload: diva.WorkloadSpec{Name: "matmul"}}
		m, err := diva.MachineFromSpec(s)
		if err != nil {
			t.Errorf("tree %q: %v", n, err)
		} else if got := m.Tree.Spec.Name(); got != n {
			t.Errorf("tree %q built a %q tree", n, got)
		}
	}
}

// TestRegistryExports pins the diva-level registry listings against the
// underlying registries.
func TestRegistryExports(t *testing.T) {
	if got, want := len(diva.Strategies()), len(strategy.Names()); got != want {
		t.Errorf("Strategies() has %d entries, registry %d", got, want)
	}
	if got, want := len(diva.Topologies()), len(topology.Names()); got != want {
		t.Errorf("Topologies() has %d entries, registry %d", got, want)
	}
	if got, want := len(diva.Workloads()), len(spec.WorkloadNames()); got != want {
		t.Errorf("Workloads() has %d entries, spec %d", got, want)
	}
	for _, e := range append(diva.Strategies(), diva.Topologies()...) {
		if e.Name == "" || e.Summary == "" {
			t.Errorf("registry entry missing name or summary: %+v", e)
		}
	}
}
