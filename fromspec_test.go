// Tests for the Spec funnel: a spec-built run must be bit-identical to
// the same run built through functional options, every registered
// workload name must build, and the spec-side name tables must stay in
// lockstep with the library's.
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

// TestSpecNameTablesInLockstep pins the spec package's own name tables
// (it deliberately avoids importing the simulator) against the library.
func TestSpecNameTablesInLockstep(t *testing.T) {
	for _, tree := range []diva.Tree{diva.Ary2, diva.Ary4, diva.Ary16, diva.Ary2K4, diva.Ary4K8, diva.Ary4K16} {
		found := false
		for _, n := range spec.TreeNames() {
			if n == tree.Name() {
				found = true
			}
		}
		if !found {
			t.Errorf("tree %q missing from spec.TreeNames()", tree.Name())
		}
	}
	if got, want := len(spec.TreeNames()), 6; got != want {
		t.Errorf("spec.TreeNames() has %d entries, want %d", got, want)
	}
	// Every tree name must build through a spec.
	for _, n := range spec.TreeNames() {
		s := diva.Spec{Tree: n, Strategy: "at2", Workload: diva.WorkloadSpec{Name: "matmul"}}
		if err := s.ValidateMachine(); err != nil {
			t.Errorf("tree %q: %v", n, err)
		}
		if _, err := diva.MachineFromSpec(s); err != nil {
			t.Errorf("tree %q: %v", n, err)
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
