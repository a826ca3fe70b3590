// A/B tests for machine snapshot/fork: forking a warmed-up machine and
// running a query on the fork must be bit-identical — the same
// executed-event-order fingerprint, simulated time, congestion, message
// counts and evictions — to running the query directly on the source
// machine. The matrix covers topology × strategy cells, the hand-optimized
// workloads on every topology, under drawn faults and under the reactive
// transport, a randomized stencil sweep, bounded caches, and the
// reseeded-fork divergence contract.
package diva_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"diva"
	"diva/fault"
	"diva/snapstore"
	"diva/spec"
)

// forkTraj is one run's observable trajectory after the query workload.
type forkTraj struct {
	fingerprint uint64
	events      uint64
	elapsedUS   float64
	congMax     uint64
	congTotal   uint64
	sendMsgs    uint64
	sendBytes   uint64
	evictions   uint64
	verified    bool
}

// capture collects the trajectory of m after a workload returned res.
func capture(t *testing.T, m *diva.Machine, res diva.Result) forkTraj {
	t.Helper()
	c := m.Net.Congestion(nil)
	msgs, bytes := m.Net.SendStats()
	var sm, sb uint64
	for k := range msgs {
		sm += msgs[k]
		sb += bytes[k]
	}
	return forkTraj{
		fingerprint: m.K.Fingerprint(),
		events:      m.K.Stat.Events,
		elapsedUS:   res.ElapsedUS,
		congMax:     c.MaxMsgs,
		congTotal:   c.TotalMsgs,
		sendMsgs:    sm,
		sendBytes:   sb,
		evictions:   diva.TotalEvictions(m),
		verified:    res.Verified,
	}
}

// mustRun runs w on m and fails the test on error.
func mustRun(t *testing.T, m *diva.Machine, w diva.Workload) diva.Result {
	t.Helper()
	res, err := w.Run(m, nil)
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return res
}

// checkForkAB pins the fork contract for one (machine options, warm
// workload, query workload) cell:
//
//   - baseline: one machine runs warm then query back-to-back;
//   - fork: a second machine runs warm, snapshots, and two concurrent
//     forks run the query — both must match the baseline exactly;
//   - the snapshot is non-destructive: the source machine continues with
//     the query and must match the baseline too.
func checkForkAB(t *testing.T, warm, query diva.Workload, opts ...diva.Option) {
	t.Helper()
	opts = append(opts, diva.WithConcurrent(true))

	a := diva.MustNew(opts...)
	mustRun(t, a, warm)
	base := capture(t, a, mustRun(t, a, query))
	if base.fingerprint == 0 {
		t.Fatal("no fingerprint collected")
	}

	b := diva.MustNew(opts...)
	mustRun(t, b, warm)
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	type out struct {
		traj forkTraj
		err  error
	}
	ch := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func() {
			f, err := diva.Fork(snap, diva.ForkConcurrent(true))
			if err != nil {
				ch <- out{err: err}
				return
			}
			res, err := query.Run(f, nil)
			if err != nil {
				ch <- out{err: err}
				return
			}
			ch <- out{traj: capture(t, f, res)}
		}()
	}
	for i := 0; i < 2; i++ {
		o := <-ch
		if o.err != nil {
			t.Fatalf("fork %d: %v", i, o.err)
		}
		if o.traj != base {
			t.Errorf("fork trajectory diverged from fresh run:\n fork: %+v\n base: %+v", o.traj, base)
		}
	}

	// The snapshot must not have disturbed the source machine.
	cont := capture(t, b, mustRun(t, b, query))
	if cont != base {
		t.Errorf("source machine diverged after snapshot:\n cont: %+v\n base: %+v", cont, base)
	}
}

// TestForkABDSM is the fork matrix over topology × strategy cells: warm
// with the matrix square, query with bitonic sorting (Barnes-Hut on the
// 4×4 cells), both through the data management strategy.
func TestForkABDSM(t *testing.T) {
	cells := []struct {
		topo, strat string
		barnesHut   bool
	}{
		{"mesh", "at4", false},
		{"torus", "fixedhome", false},
		{"hypercube", "at2", false},
		{"fattree", "at4k8", false},
		{"hypercube", "fixedhome", true},
		{"fattree", "at4", true},
	}
	warm := diva.Matmul(diva.MatmulConfig{BlockInts: 64, Seed: 1})
	for _, cell := range cells {
		cell := cell
		name, side := cell.topo+"/"+cell.strat, 8
		query := diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16, Check: true, Seed: 2})
		if cell.barnesHut {
			name, side = name+"/barneshut", 4
			query = diva.BarnesHut(diva.BarnesHutConfig{N: 128, Steps: 2, MeasureFrom: 1, Seed: 3, WithCompute: true})
		}
		t.Run(name, func(t *testing.T) {
			if cell.barnesHut && testing.Short() {
				t.Skip("Barnes-Hut cells are slow")
			}
			checkForkAB(t, warm, query,
				diva.WithTopologyName(cell.topo, side, side),
				diva.WithStrategyName(cell.strat),
				diva.WithSeed(1999))
		})
	}
}

// handOptCell is one row of TestForkABHandOpt: machine options, the warm
// and query workloads, and an optional check that the warmed machine
// exercised what the row is there for.
type handOptCell struct {
	name        string
	opts        []diva.Option
	warm, query diva.Workload
	engaged     func(m *diva.Machine) error
}

// TestForkABHandOpt pins the fork contract on strategy-free machines: the
// hand-optimized workloads on every topology, under a drawn fault schedule
// (the cell must re-route or hold), under the reactive transport (acks
// must flow), and over randomized stencil configurations.
func TestForkABHandOpt(t *testing.T) {
	stencil := diva.Stencil(diva.StencilConfig{Iters: 3, HaloInts: 32, WithCompute: true, OpUS: 0.5, Check: true, Seed: 7})
	bitonic := diva.BitonicHandOpt(diva.BitonicConfig{KeysPerProc: 32, Check: true, Seed: 9})
	ary2 := func(topo string, side int, more ...diva.Option) []diva.Option {
		return append([]diva.Option{diva.WithTopologyName(topo, side, side), diva.WithSeed(1999), diva.WithTree(diva.Ary2)}, more...)
	}
	faulted := func(m *diva.Machine) error {
		if st := m.Net.FaultStats(); st.Routed == 0 || st.Rerouted+st.Held == 0 {
			return fmt.Errorf("faults never engaged: %+v", st)
		}
		return nil
	}
	acked := func(m *diva.Machine) error {
		if st := m.Net.FaultStats(); st.AckMsgs == 0 {
			return fmt.Errorf("transport idle: %+v", st)
		}
		return nil
	}
	cells := []handOptCell{{name: "mesh", opts: ary2("mesh", 8), warm: stencil, query: bitonic}}
	for _, topo := range []string{"mesh", "torus", "hypercube", "fattree"} {
		cells = append(cells,
			handOptCell{name: "stencil/" + topo, opts: ary2(topo, 8), warm: bitonic,
				query: diva.Stencil(diva.StencilConfig{Iters: 4, HaloInts: 64, WithCompute: true, OpUS: 0.5, Check: true, Seed: 7})},
			handOptCell{name: "bitonic-handopt/" + topo, opts: ary2(topo, 8), warm: stencil,
				query: diva.BitonicHandOpt(diva.BitonicConfig{KeysPerProc: 64, Check: true, Seed: 7})})
	}
	cells = append(cells, handOptCell{name: "matmul-handopt/mesh", opts: ary2("mesh", 8),
		warm:  diva.MatmulHandOpt(diva.MatmulConfig{BlockInts: 256, WithCompute: true, OpUS: 3.45, Seed: 1, Check: true}),
		query: bitonic})
	for _, topo := range []string{"mesh", "torus", "graph:degraded", "graph:regular"} {
		cells = append(cells, handOptCell{name: "faults/" + topo, opts: ary2(topo, 8, diva.WithFaultGen(faultGen)),
			warm:    diva.Stencil(diva.StencilConfig{Iters: 4, HaloInts: 64, WithCompute: true, OpUS: 0.5, Check: true, Seed: 7}),
			query:   bitonic,
			engaged: faulted})
	}
	for _, rc := range []struct {
		name           string
		seed           uint64
		gen            fault.Gen
		ackUS, backoff float64
		retries        int
	}{
		{"links-fast", 41, fault.Gen{LinkFailures: 2, MeanDownUS: 5000, HorizonUS: 40000}, 500, 2, 3},
		{"churn-mixed", 97, fault.Gen{LinkFailures: 1, NodeChurn: 2, MeanDownUS: 8000, HorizonUS: 60000}, 1000, 1.5, 2},
		{"churn-patient", 7, fault.Gen{NodeChurn: 1, MeanDownUS: 20000, HorizonUS: 30000}, 2000, 2, 5},
	} {
		opts := []diva.Option{diva.WithMesh(4, 4), diva.WithSeed(rc.seed), diva.WithFaultGen(rc.gen),
			diva.WithRecovery(diva.RecoveryReactive), diva.WithAckTransport(rc.ackUS, rc.retries, rc.backoff)}
		mm := diva.MatmulHandOpt(diva.MatmulConfig{BlockInts: 16, Seed: 5, Check: true})
		st := diva.Stencil(diva.StencilConfig{Iters: 3, HaloInts: 32, Check: true, Seed: 5})
		cells = append(cells,
			handOptCell{name: "reactive/" + rc.name + "/matmul", opts: opts, warm: st, query: mm, engaged: acked},
			handOptCell{name: "reactive/" + rc.name + "/stencil", opts: opts, warm: mm, query: st, engaged: acked})
	}
	// Randomized stencil sweep, drawn from a fixed xorshift stream.
	rng := uint64(0x1999)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	fuzz := 6
	if testing.Short() {
		fuzz = 2
	}
	topos := []string{"mesh", "torus", "hypercube", "fattree"}
	for i := 0; i < fuzz; i++ {
		topo := topos[next(len(topos))]
		rows, cols := 4+4*next(2), 8
		iters, halo := 2+next(4), 16<<next(3)
		seed := uint64(1 + next(1_000_000))
		w := diva.Stencil(diva.StencilConfig{Iters: iters, HaloInts: halo, WithCompute: next(2) == 0, OpUS: 0.5, Check: true, Seed: seed})
		cells = append(cells, handOptCell{
			name: fmt.Sprintf("fuzz/%s_%dx%d_it%d_h%d_s%d", topo, rows, cols, iters, halo, seed),
			opts: []diva.Option{diva.WithTopologyName(topo, rows, cols), diva.WithSeed(seed), diva.WithTree(diva.Ary2)},
			warm: w, query: bitonic})
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			checkForkAB(t, cell.warm, cell.query, cell.opts...)
			if cell.engaged == nil {
				return
			}
			m := diva.MustNew(cell.opts...)
			mustRun(t, m, cell.warm)
			if err := cell.engaged(m); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestForkABBoundedCache pins the fork contract with a bounded cache: the
// fork must reinstate the exact entry set (including over-capacity state
// left by refused evictions) and the eviction counters.
func TestForkABBoundedCache(t *testing.T) {
	warm := diva.Matmul(diva.MatmulConfig{BlockInts: 64, Seed: 1})
	query := diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16, Check: true, Seed: 2})
	checkForkAB(t, warm, query,
		diva.WithMesh(4, 4), diva.WithStrategyName("at4"),
		diva.WithSeed(1999), diva.WithCacheCapacity(2048))

	// The cell must actually exercise replacement, or the test is vacuous.
	m := diva.MustNew(diva.WithMesh(4, 4), diva.WithStrategyName("at4"),
		diva.WithSeed(1999), diva.WithCacheCapacity(2048), diva.WithConcurrent(true))
	mustRun(t, m, warm)
	if diva.TotalEvictions(m) == 0 {
		t.Error("warm-up produced no evictions; shrink the cache capacity")
	}
}

// TestForkReseedDivergence pins the reseed contract: forks with distinct
// ForkSeeds diverge (future random placements differ), forks with the same
// ForkSeed are identical, and reseeding never disturbs sibling forks.
func TestForkReseedDivergence(t *testing.T) {
	warm := diva.Matmul(diva.MatmulConfig{BlockInts: 64, Seed: 1})
	query := diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16, Check: true, Seed: 2})
	m := diva.MustNew(diva.WithMesh(8, 8), diva.WithStrategyName("at4"),
		diva.WithSeed(1999), diva.WithConcurrent(true))
	mustRun(t, m, warm)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	run := func(opts ...diva.ForkOption) forkTraj {
		f, err := diva.Fork(snap, append(opts, diva.ForkConcurrent(true))...)
		if err != nil {
			t.Fatalf("Fork: %v", err)
		}
		return capture(t, f, mustRun(t, f, query))
	}
	plain := run()
	s1 := run(diva.ForkSeed(1))
	s2 := run(diva.ForkSeed(2))
	s1again := run(diva.ForkSeed(1))
	if s1 != s1again {
		t.Errorf("same ForkSeed diverged: %+v vs %+v", s1, s1again)
	}
	if s1.fingerprint == s2.fingerprint {
		t.Errorf("distinct ForkSeeds did not diverge: both %#x", s1.fingerprint)
	}
	if s1.fingerprint == plain.fingerprint {
		t.Errorf("reseeded fork tracked the un-reseeded fork: both %#x", s1.fingerprint)
	}
	// The un-reseeded fork still replays the source exactly.
	cont := capture(t, m, mustRun(t, m, query))
	if plain != cont {
		t.Errorf("un-reseeded fork diverged from continued source: %+v vs %+v", plain, cont)
	}
}

// TestForkWarmedConcurrent forks one Barnes-Hut-warmed 8×8 at4 snapshot in
// eight goroutines at once, from the live capture and from the same
// snapshot saved and loaded back. Every fork restores the node table of
// each variable it reaches from the snapshot's captured entries. Each one
// writes most body variables, locks the final tree's root cell, frees it
// and the bodies it left untouched, and then allocates and writes a
// variable a processor that every processor reads, so that its table turns
// full. The fingerprints must equal a fork's run alone, and the snapshot's
// table section must read the same bytes before and after. Run under
// -race: the forks read the captured tables together.
func TestForkWarmedConcurrent(t *testing.T) {
	sp := spec.Spec{Topology: "mesh", Rows: 8, Cols: 8, Strategy: "at4", Seed: 1999,
		Workload: spec.Workload{Name: "barneshut", Bodies: 256, Steps: 2, MeasureFrom: 1}}
	m, warm, err := diva.FromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, m, warm).Detail.(diva.BarnesHutResult)
	live, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(snapstore.Handle(sp), sp, live); err != nil {
		t.Fatal(err)
	}
	_, loaded, err := st.Load(snapstore.Handle(sp))
	if err != nil {
		t.Fatal(err)
	}
	query := func(snap *diva.Snapshot) (uint64, error) {
		f, err := diva.Fork(snap)
		if err != nil {
			return 0, err
		}
		fresh := make([]diva.VarID, f.P())
		// The first 16 bodies are freed untouched, while the fork still
		// borrows them; the others are written.
		untouched, bodies := res.BodyVars[:16], res.BodyVars[16:]
		err = f.Run(func(p *diva.Proc) {
			for i := p.ID; i < len(bodies); i += f.P() {
				p.Write(bodies[i], i)
			}
			p.Barrier()
			_ = p.Read(bodies[(p.ID*7+3)%len(bodies)])
			p.Lock(res.FinalRoot)
			p.Unlock(res.FinalRoot)
			p.Barrier()
			if p.ID == 0 {
				f.Free(res.FinalRoot)
				for _, v := range untouched {
					f.Free(v)
				}
			}
			p.Barrier()
			fresh[p.ID] = p.Alloc(64, p.ID)
			p.Write(fresh[p.ID], -p.ID)
			p.Barrier()
			for _, v := range fresh {
				_ = p.Read(v)
			}
		})
		return f.K.Fingerprint(), err
	}
	tables := func(snap *diva.Snapshot) []byte {
		w, err := snap.Wire()
		if err != nil {
			t.Fatal(err)
		}
		return w.Tables
	}
	for _, src := range []struct {
		name string
		snap *diva.Snapshot
	}{{"live", live}, {"loaded", loaded}} {
		t.Run(src.name, func(t *testing.T) {
			before := tables(src.snap)
			want, err := query(src.snap)
			if err != nil {
				t.Fatal(err)
			}
			const forks = 8
			got := make([]uint64, forks)
			errs := make([]error, forks)
			var wg sync.WaitGroup
			for i := range forks {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = query(src.snap)
				}()
			}
			wg.Wait()
			for i := range forks {
				if errs[i] != nil || got[i] != want {
					t.Errorf("fork %d: fingerprint %#x (%v), alone %#x", i, got[i], errs[i], want)
				}
			}
			if !bytes.Equal(tables(src.snap), before) {
				t.Error("the forks changed the snapshot's node tables")
			}
		})
	}
}

// TestForkUnboundedConcurrent forks one birth snapshot of an unbounded 4×4
// at4 machine in eight goroutines at once and runs matmul on each, as the
// service serves tiny cached runs. Machines without a cache bound keep no
// caches of their own: every one of them hands its strategy the one shared
// unbounded cache, which nothing may write. Each fingerprint must equal a
// lone fork's. Run under -race.
func TestForkUnboundedConcurrent(t *testing.T) {
	sp := spec.Spec{Topology: "mesh", Rows: 4, Cols: 4, Strategy: "at4", Seed: 1999,
		Workload: spec.Workload{Name: "matmul", Block: 16, Seed: 1}}
	m, w, err := diva.FromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	birth, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	query := func() (uint64, error) {
		f, err := diva.Fork(birth)
		if err != nil {
			return 0, err
		}
		if _, err := w.Run(f, nil); err != nil {
			return 0, err
		}
		return f.K.Fingerprint(), nil
	}
	want, err := query()
	if err != nil {
		t.Fatal(err)
	}
	const forks = 8
	got := make([]uint64, forks)
	errs := make([]error, forks)
	var wg sync.WaitGroup
	for i := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = query()
		}()
	}
	wg.Wait()
	for i := range forks {
		if errs[i] != nil || got[i] != want {
			t.Errorf("fork %d: fingerprint %#x (%v), alone %#x", i, got[i], errs[i], want)
		}
	}
}

// warmedBarnesHut returns the spec of an 8×8 at4 machine, the machine
// after the spec's Barnes-Hut warm-up, and the warm-up's result.
func warmedBarnesHut(t *testing.T) (spec.Spec, *diva.Machine, diva.BarnesHutResult) {
	t.Helper()
	sp := spec.Spec{Topology: "mesh", Rows: 8, Cols: 8, Strategy: "at4", Seed: 1999,
		Workload: spec.Workload{Name: "barneshut", Bodies: 256, Steps: 2, MeasureFrom: 1}}
	m, warm, err := diva.FromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	return sp, m, mustRun(t, m, warm).Detail.(diva.BarnesHutResult)
}

// TestForkLentResnapshot touches a subset of a warmed machine's variables
// on a fork, snapshots the fork — which makes the variables it still
// borrows — saves and loads that snapshot, and runs a second query, which
// reaches the variables the first left untouched, on a fork of it. The
// fingerprint and the clock must equal the source machine's after both
// queries.
func TestForkLentResnapshot(t *testing.T) {
	sp, src, res := warmedBarnesHut(t)
	bodies := res.BodyVars
	half := len(bodies) / 2
	first := func(m *diva.Machine) {
		err := m.Run(func(p *diva.Proc) {
			for i := p.ID; i < half; i += 2 * m.P() {
				p.Write(bodies[i], i)
			}
			p.Barrier()
			_ = p.Read(bodies[(p.ID*5+1)%half])
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	second := func(m *diva.Machine) {
		err := m.Run(func(p *diva.Proc) {
			for i := p.ID; i < len(bodies); i += m.P() {
				_ = p.Read(bodies[(i*7)%len(bodies)])
			}
			p.Barrier()
			if p.ID%9 == 0 {
				p.Write(bodies[half+p.ID], -p.ID)
			}
			p.Lock(res.FinalRoot)
			p.Unlock(res.FinalRoot)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	f, err := diva.Fork(snap)
	if err != nil {
		t.Fatal(err)
	}
	first(f)
	mid, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(snapstore.Handle(sp), sp, mid); err != nil {
		t.Fatal(err)
	}
	_, loaded, err := st.Load(snapstore.Handle(sp))
	if err != nil {
		t.Fatal(err)
	}
	g, err := diva.Fork(loaded)
	if err != nil {
		t.Fatal(err)
	}
	second(g)
	first(src)
	second(src)
	if got, want := g.K.Fingerprint(), src.K.Fingerprint(); got != want || g.Elapsed() != src.Elapsed() {
		t.Errorf("fork of the reloaded fork: fingerprint %#x at %v us, source %#x at %v us", got, g.Elapsed(), want, src.Elapsed())
	}
}

// TestForkLentBoundedCache forks a machine whose bounded caches are full
// of its warm-up's copies and runs a query on variables of its own: the
// copies it pushes out belong to variables the query never touches. The
// fork must evict exactly as the source machine running the same query.
func TestForkLentBoundedCache(t *testing.T) {
	opts := []diva.Option{diva.WithMesh(4, 4), diva.WithStrategyName("at4"), diva.WithSeed(1999),
		diva.WithCacheCapacity(2048), diva.WithConcurrent(true)}
	query := func(m *diva.Machine) (fingerprint, evictions uint64) {
		before := diva.TotalEvictions(m)
		fresh := make([]diva.VarID, m.P())
		for i := range fresh {
			fresh[i] = m.AllocAt(i, 512, i)
		}
		err := m.Run(func(p *diva.Proc) {
			for r := 1; r <= 3; r++ {
				_ = p.Read(fresh[(p.ID+r*5)%len(fresh)])
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.K.Fingerprint(), diva.TotalEvictions(m) - before
	}
	src := diva.MustNew(opts...)
	mustRun(t, src, diva.Matmul(diva.MatmulConfig{BlockInts: 64, Seed: 1}))
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	f, err := diva.Fork(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, gotEv := query(f)
	want, wantEv := query(src)
	if got != want || gotEv != wantEv {
		t.Errorf("fork: fingerprint %#x after %d evictions, source %#x after %d", got, gotEv, want, wantEv)
	}
	t.Logf("the query evicted %d copies", wantEv)
	if wantEv == 0 {
		t.Error("the query evicted nothing; shrink the cache capacity")
	}
}

// TestForkLentConcurrent forks one Barnes-Hut-warmed snapshot in eight
// goroutines at once, the live capture and the same snapshot saved and
// restored from disk; fork g reads and writes a window of the bodies that
// overlaps fork g+1's, so several forks make their own records of one
// borrowed variable, and restore their own tables from one capture, at
// the same time. Each fingerprint must equal the same query's on
// a lone fork of the live capture. Run under -race: the forks read the
// snapshot's variable records, bitmaps and tables together.
func TestForkLentConcurrent(t *testing.T) {
	sp, src, res := warmedBarnesHut(t)
	live, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(snapstore.Handle(sp), sp, live); err != nil {
		t.Fatal(err)
	}
	_, loaded, err := st.Load(snapstore.Handle(sp))
	if err != nil {
		t.Fatal(err)
	}
	bodies := res.BodyVars
	const forks = 8
	width := len(bodies) / forks
	query := func(snap *diva.Snapshot, g int) (uint64, error) {
		f, err := diva.Fork(snap)
		if err != nil {
			return 0, err
		}
		window := bodies[g*width : min(len(bodies), (g+2)*width)]
		err = f.Run(func(p *diva.Proc) {
			for i := p.ID; i < len(window); i += f.P() {
				if i%3 == g%3 {
					p.Write(window[i], g)
				} else {
					_ = p.Read(window[i])
				}
			}
			p.Barrier()
			_ = p.Read(window[(p.ID*7+g)%len(window)])
		})
		return f.K.Fingerprint(), err
	}
	want := make([]uint64, forks)
	for g := range forks {
		if want[g], err = query(live, g); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []struct {
		name string
		snap *diva.Snapshot
	}{{"live", live}, {"loaded", loaded}} {
		t.Run(src.name, func(t *testing.T) {
			got := make([]uint64, forks)
			errs := make([]error, forks)
			var wg sync.WaitGroup
			for g := range forks {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[g], errs[g] = query(src.snap, g)
				}()
			}
			wg.Wait()
			for g := range forks {
				if errs[g] != nil || got[g] != want[g] {
					t.Errorf("fork %d: fingerprint %#x (%v), alone %#x", g, got[g], errs[g], want[g])
				}
			}
		})
	}
}
