// Public-surface regression tests: the façade (diva.New + registries +
// Workload) must drive the exact same simulations as the internal
// construction path, validate configurations with errors instead of
// panics, and keep the golden determinism fingerprints unchanged.
package diva_test

import (
	"strings"
	"testing"

	"diva"
	"diva/internal/core"
	"diva/internal/decomp"
	"diva/strategy"
	"diva/topology"
)

// TestPublicAPIGoldenDeterminism: the golden seed values (captured on the
// seed implementation, see determinism_test.go) must be reproduced when
// the machine is built and the workload driven entirely through the
// public API. A failure here means the façade changed configuration
// defaults or simulation semantics.
func TestPublicAPIGoldenDeterminism(t *testing.T) {
	m, err := diva.New(
		diva.WithMesh(8, 8),
		diva.WithSeed(1999),
		diva.WithStrategyName("at4"),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := diva.Matmul(diva.MatmulConfig{BlockInts: 256, Seed: 1}).Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ElapsedUS != 109496 {
		t.Errorf("matmul AT elapsed = %v us, want 109496 (seed golden)", res.ElapsedUS)
	}
	want := diva.Congestion{MaxMsgs: 118, MaxBytes: 39528, TotalMsgs: 12126, TotalBytes: 3493560}
	if got := m.Net.Congestion(nil); got != want {
		t.Errorf("matmul AT congestion = %+v, want %+v (seed golden)", got, want)
	}
	if _, ok := res.Detail.(diva.MatmulResult); !ok {
		t.Errorf("matmul Detail is %T, want diva.MatmulResult", res.Detail)
	}

	// The event-order fingerprint must equal the internal construction
	// path's bit for bit: the façade is an alias surface, not a rebuild.
	direct := core.MustNewMachine(core.Config{
		Rows: 8, Cols: 8, Seed: 1999, Tree: decomp.Ary4,
		Strategy: strategy.MustGet("at4").Factory,
	})
	if _, err := diva.Matmul(diva.MatmulConfig{BlockInts: 256, Seed: 1}).Run(direct, nil); err != nil {
		t.Fatal(err)
	}
	if a, b := m.K.Fingerprint(), direct.K.Fingerprint(); a != b || a == 0 {
		t.Errorf("public-API fingerprint %#x != internal-path fingerprint %#x", a, b)
	}
}

// TestPublicAPIGoldenBarnesHut pins the Barnes-Hut workload driven through
// the public API to its seed-captured trajectory (cf. TestGoldenBarnesHut).
func TestPublicAPIGoldenBarnesHut(t *testing.T) {
	m := diva.MustNew(
		diva.WithMesh(4, 4),
		diva.WithSeed(1999),
		diva.WithStrategyName("at4"),
	)
	col := diva.NewCollector(m)
	_, err := diva.BarnesHut(diva.BarnesHutConfig{
		N: 400, Steps: 3, MeasureFrom: 1, Seed: 3, WithCompute: true,
	}).Run(m, col)
	if err != nil {
		t.Fatal(err)
	}
	tot := col.Total()
	if tot.TimeUS != 4723514 {
		t.Errorf("barnes-hut time = %v us, want 4723514 (seed golden)", tot.TimeUS)
	}
	if tot.Cong.MaxMsgs != 1605 || tot.Cong.TotalMsgs != 58712 {
		t.Errorf("barnes-hut congestion = max %d / total %d msgs, want 1605 / 58712 (seed golden)",
			tot.Cong.MaxMsgs, tot.Cong.TotalMsgs)
	}
}

// TestNewValidation: configuration mistakes must come back as errors
// naming the problem, never as panics.
func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []diva.Option
		want string
	}{
		{"no interconnect", nil, "dimensions must be positive"},
		{"zero rows", []diva.Option{diva.WithMesh(0, 4)}, "dimensions must be positive"},
		{"negative cols", []diva.Option{diva.WithMesh(4, -1)}, "dimensions must be positive"},
		{"nil topology", []diva.Option{diva.WithTopology(nil)}, "WithTopology(nil)"},
		{"unknown strategy", []diva.Option{diva.WithMesh(4, 4), diva.WithStrategyName("nope")}, `unknown strategy "nope"`},
		{"unknown topology", []diva.Option{diva.WithTopologyName("ring", 4, 4)}, `unknown topology "ring"`},
		{"non-pow2 hypercube", []diva.Option{diva.WithTopologyName("hypercube", 3, 3)}, "power-of-two"},
		{"bad tree", []diva.Option{diva.WithMesh(4, 4), diva.WithTree(diva.Tree{Base: 3})}, "unsupported decomposition tree"},
		{"bad term-k", []diva.Option{diva.WithMesh(4, 4), diva.WithTree(diva.Tree{Base: 4, TermK: 2})}, "unsupported decomposition tree"},
		{"negative capacity", []diva.Option{diva.WithMesh(4, 4), diva.WithCacheCapacity(-1)}, "cache capacity"},
		{"partial net params", []diva.Option{diva.WithMesh(4, 4), diva.WithNetParams(diva.NetParams{HopLatencyUS: 5})}, "bandwidth must be positive"},
	}
	for _, tc := range cases {
		m, err := diva.New(tc.opts...)
		if err == nil {
			t.Errorf("%s: New succeeded (%v), want error containing %q", tc.name, m.Topo, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// A DSM workload on a machine without a strategy is an error, not a
	// panic deep inside Alloc.
	m := diva.MustNew(diva.WithMesh(4, 4))
	if _, err := diva.Matmul(diva.MatmulConfig{BlockInts: 64}).Run(m, nil); err == nil ||
		!strings.Contains(err.Error(), "no data management strategy") {
		t.Errorf("matmul on strategy-less machine: err = %v, want strategy error", err)
	}
	if _, err := diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16}).Run(m, nil); err == nil ||
		!strings.Contains(err.Error(), "no data management strategy") {
		t.Errorf("bitonic on strategy-less machine: err = %v, want strategy error", err)
	}
	if _, err := diva.BarnesHut(diva.BarnesHutConfig{N: 16}).Run(m, nil); err == nil ||
		!strings.Contains(err.Error(), "no data management strategy") {
		t.Errorf("barneshut on strategy-less machine: err = %v, want strategy error", err)
	}
}

// TestMustNewPanics: MustNew is the explicit panicking variant for tests
// and fixed setups.
func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(WithMesh(-1, 1)) did not panic")
		}
	}()
	diva.MustNew(diva.WithMesh(-1, 1))
}

// TestWithTreeOverridesRegistryDefault: an explicit WithTree wins over the
// strategy's registered tree, in either option order.
func TestWithTreeOverridesRegistryDefault(t *testing.T) {
	before := diva.MustNew(diva.WithMesh(4, 4), diva.WithTree(diva.Ary2), diva.WithStrategyName("at4"))
	after := diva.MustNew(diva.WithMesh(4, 4), diva.WithStrategyName("at4"), diva.WithTree(diva.Ary2))
	def := diva.MustNew(diva.WithMesh(4, 4), diva.WithStrategyName("at4"))
	if got := before.Cfg.Tree; got != diva.Ary2 {
		t.Errorf("WithTree before WithStrategyName: tree %+v, want Ary2", got)
	}
	if got := after.Cfg.Tree; got != diva.Ary2 {
		t.Errorf("WithTree after WithStrategyName: tree %+v, want Ary2", got)
	}
	if got := def.Cfg.Tree; got != diva.Ary4 {
		t.Errorf("registry default tree %+v, want Ary4", got)
	}
	// WithStrategy replaces an earlier strategy option entirely: the tree
	// a WithStrategyName recorded must not leak onto the new strategy.
	repl := diva.MustNew(diva.WithMesh(4, 4), diva.WithStrategyName("at2"),
		diva.WithStrategy(strategy.MustGet("at4").Factory))
	if got := repl.Cfg.Tree; got != diva.Ary4 {
		t.Errorf("replaced strategy inherited stale tree %+v, want the Ary4 default", got)
	}
}

// TestWorkloadsRunOnEveryRegistryCell: the Workload interface must run
// every application on every (topology × strategy) registry cell — the
// embeddability claim of the façade — at miniature scale.
func TestWorkloadsRunOnEveryRegistryCell(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry cross product in short mode")
	}
	workloads := []diva.Workload{
		diva.Matmul(diva.MatmulConfig{BlockInts: 16, Check: true, Seed: 5}),
		diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16, Check: true, Seed: 5}),
		diva.BarnesHut(diva.BarnesHutConfig{N: 64, Steps: 2, MeasureFrom: 1, Seed: 5}),
	}
	for _, topoName := range topology.Names() {
		for _, stratName := range strategy.Names() {
			for _, w := range workloads {
				m, err := diva.New(
					diva.WithTopologyName(topoName, 4, 4),
					diva.WithStrategyName(stratName),
					diva.WithSeed(11),
					diva.WithConcurrent(true),
				)
				if err != nil {
					t.Fatalf("%s/%s: %v", topoName, stratName, err)
				}
				res, err := w.Run(m, nil)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", topoName, stratName, w.Name(), err)
				}
				if res.ElapsedUS <= 0 {
					t.Errorf("%s/%s/%s: non-positive simulated time %v", topoName, stratName, w.Name(), res.ElapsedUS)
				}
				if w.Name() != "barneshut" && !res.Verified {
					t.Errorf("%s/%s/%s: result not verified", topoName, stratName, w.Name())
				}
			}
		}
	}
}
