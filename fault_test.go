// A/B tests for the fault-injection subsystem: faulty runs must stay
// bit-reproducible — the same executed-event-order fingerprint for a
// schedule drawn from the machine seed vs. the same schedule declared
// explicitly in the spec, and for a mid-schedule fork vs. running straight
// through. Fork A/B rows over drawn schedules on four topologies live in
// fork_ab_test.go.
package diva_test

import (
	"fmt"
	"testing"

	"diva"
	"diva/fault"
	"diva/spec"
)

// faultGen is the randomized schedule of TestForkABHandOpt's fault rows:
// outages land inside the stencil warm phase (which ends around 20–27 ms
// of simulated time on the 8x8 machines).
var faultGen = fault.Gen{LinkFailures: 6, NodeChurn: 2, MeanDownUS: 3000, HorizonUS: 15000}

// TestFaultSpecVsSeedFingerprint is the serialization fuzz: for several
// seeds, a run whose schedule is drawn from the run seed must
// fingerprint-match the same run with that schedule declared event-by-event
// in the spec — FaultSchedule() is a complete description of the faulty run.
func TestFaultSpecVsSeedFingerprint(t *testing.T) {
	seeds := []uint64{1999, 7, 424242}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			gen := diva.Spec{
				Topology: "mesh", Rows: 8, Cols: 8, Seed: seed,
				Workload: diva.WorkloadSpec{Name: "stencil", Iters: 3, Halo: 32, Compute: true, Check: true, Seed: 7},
				Fault:    &spec.Fault{LinkFailures: 3, NodeChurn: 1, MeanDownUS: 3000, HorizonUS: 12000},
			}
			mg, wg, err := diva.FromSpec(gen)
			if err != nil {
				t.Fatal(err)
			}
			sched := mg.Net.FaultSchedule()
			if len(sched) != 2*(3+1) {
				t.Fatalf("drawn schedule has %d events, want 8", len(sched))
			}
			if _, err := wg.Run(mg, nil); err != nil {
				t.Fatal(err)
			}

			decl := gen
			decl.Fault = &spec.Fault{Events: make([]spec.FaultEvent, len(sched))}
			for i, ev := range sched {
				decl.Fault.Events[i] = spec.FaultEvent{AtUS: ev.AtUS, Kind: ev.Kind.String(), A: ev.A, B: ev.B}
			}
			md, wd, err := diva.FromSpec(decl)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wd.Run(md, nil); err != nil {
				t.Fatal(err)
			}
			if gf, df := mg.K.Fingerprint(), md.K.Fingerprint(); gf != df {
				t.Errorf("declared-schedule fingerprint %#x != drawn-schedule %#x", df, gf)
			}
			if gs, ds := mg.Net.FaultStats(), md.Net.FaultStats(); gs != ds {
				t.Errorf("fault stats diverged: drawn %+v, declared %+v", gs, ds)
			}
		})
	}
}

// TestFaultForkAB pins the mid-schedule fork contract: with a schedule
// spanning both the warm and the query phase, forking at quiescence
// between fault events and running the query must match running straight
// through — trajectory and fault counters both.
func TestFaultForkAB(t *testing.T) {
	// Warm stencil ends near 20 ms, the bitonic query near 30 ms: the link
	// outage lands in the warm phase, the churn in the query phase, so the
	// snapshot is taken with the schedule cursor strictly mid-way.
	sched := fault.Schedule{
		{AtUS: 2000, Kind: fault.LinkDown, A: 0, B: 1},
		{AtUS: 9000, Kind: fault.LinkUp, A: 0, B: 1},
		{AtUS: 21000, Kind: fault.NodeDown, A: 5},
		{AtUS: 25000, Kind: fault.NodeUp, A: 5},
	}
	warm := diva.Stencil(diva.StencilConfig{Iters: 4, HaloInts: 64, WithCompute: true, OpUS: 0.5, Check: true, Seed: 7})
	query := diva.BitonicHandOpt(diva.BitonicConfig{KeysPerProc: 32, Check: true, Seed: 9})
	// The mesh and the torus share node numbering and the 0–1 link, so
	// the same schedule degrades both, along different routes.
	for _, topo := range []string{"mesh", "torus"} {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			opts := []diva.Option{
				diva.WithTopologyName(topo, 8, 8), diva.WithSeed(1999), diva.WithTree(diva.Ary2),
				diva.WithFaults(sched), diva.WithConcurrent(true),
			}

			// Baseline: straight through.
			a := diva.MustNew(opts...)
			mustRun(t, a, warm)
			warmStats := a.Net.FaultStats()
			if warmStats.Routed == 0 || warmStats.Rerouted+warmStats.Held == 0 {
				t.Fatalf("warm phase never degraded: %+v", warmStats)
			}
			base := capture(t, a, mustRun(t, a, query))
			baseStats := a.Net.FaultStats()
			if baseStats == warmStats {
				t.Fatal("query phase saw no fault activity; schedule does not span the fork point")
			}

			// Fork at quiescence between the schedule's halves.
			b := diva.MustNew(opts...)
			mustRun(t, b, warm)
			snap, err := b.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			f, err := diva.Fork(snap, diva.ForkConcurrent(true))
			if err != nil {
				t.Fatalf("Fork: %v", err)
			}
			if got := f.Net.FaultStats(); got != warmStats {
				t.Errorf("fork did not restore warm-phase fault stats: %+v vs %+v", got, warmStats)
			}
			traj := capture(t, f, mustRun(t, f, query))
			if traj != base {
				t.Errorf("fork trajectory diverged:\n fork: %+v\n base: %+v", traj, base)
			}
			if got := f.Net.FaultStats(); got != baseStats {
				t.Errorf("fork fault stats diverged: %+v vs %+v", got, baseStats)
			}

			// The snapshot must not have disturbed the source machine.
			cont := capture(t, b, mustRun(t, b, query))
			if cont != base || b.Net.FaultStats() != baseStats {
				t.Errorf("source machine diverged after snapshot: %+v vs %+v", cont, base)
			}
		})
	}
}

// TestFaultKindNamesLockstep: every kind name the spec layer admits builds
// a machine whose installed schedule round-trips to the same name.
func TestFaultKindNamesLockstep(t *testing.T) {
	kinds := spec.FaultKinds()
	for i := 0; i+1 < len(kinds); i += 2 {
		down, up := kinds[i], kinds[i+1]
		s := diva.Spec{
			Rows: 2, Cols: 2, Seed: 1,
			Workload: diva.WorkloadSpec{Name: "bitonic", Keys: 4},
			Fault: &spec.Fault{Events: []spec.FaultEvent{
				{AtUS: 1, Kind: down, A: 0, B: 1},
				{AtUS: 2, Kind: up, A: 0, B: 1},
			}},
		}
		m, err := diva.MachineFromSpec(s)
		if err != nil {
			t.Fatalf("kind %q: %v", down, err)
		}
		sched := m.Net.FaultSchedule()
		if len(sched) != 2 || sched[0].Kind.String() != down || sched[1].Kind.String() != up {
			t.Errorf("kind %q: schedule round-trips as %v", down, sched)
		}
	}
	// Unknown kinds must be rejected by validation, not silently mapped.
	bad := diva.Spec{
		Rows: 2, Cols: 2,
		Workload: diva.WorkloadSpec{Name: "bitonic", Keys: 4},
		Fault: &spec.Fault{Events: []spec.FaultEvent{
			{AtUS: 1, Kind: "link-flaky", A: 0, B: 1},
		}},
	}
	if _, err := diva.MachineFromSpec(bad); err == nil {
		t.Error("unknown fault kind accepted")
	}
}

// TestFaultGoldenDegraded pins the fault golden of the repo benchmark and
// the verify notes in the root suite too: matmul on the 8×8 degraded mesh
// under a drawn schedule. The degraded mesh's edge set, the drawn schedule
// and the re-routing all feed this one fingerprint.
func TestFaultGoldenDegraded(t *testing.T) {
	m, w, err := diva.FromSpec(diva.Spec{
		Topology: "graph:degraded", Rows: 8, Cols: 8, Strategy: "at4", Seed: 1999,
		Fault:    &spec.Fault{LinkFailures: 4, NodeChurn: 1, MeanDownUS: 20000, HorizonUS: 100000},
		Workload: diva.WorkloadSpec{Name: "matmul", Block: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(m, nil); err != nil {
		t.Fatal(err)
	}
	if got := m.K.Fingerprint(); got != 0xf3461460b6586779 {
		t.Fatalf("fingerprint %#x, want 0xf3461460b6586779", got)
	}
}
