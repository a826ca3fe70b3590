package experiments

import (
	"bytes"
	"strings"
	"testing"

	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/core/fixedhome"
	"diva/internal/decomp"
)

// coreMachine builds a side×side machine for shape tests.
func coreMachine(side int, f core.Factory) *core.Machine {
	return core.MustNewMachine(core.Config{
		Rows: side, Cols: side, Seed: 8, Tree: decomp.Ary4, Strategy: f,
	})
}

// TestIllustrativeFigures: Figures 1, 2 and 5 must render and contain the
// structural landmarks of the paper's figures.
func TestIllustrativeFigures(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf, true, 1)
	for _, fig := range []string{"1", "2", "5"} {
		if err := r.Run(fig); err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "level 4") {
		t.Error("Figure 1 missing level 4 (M(4,3) has decomposition levels 0..4)")
	}
	if !strings.Contains(out, "fixed home") || !strings.Contains(out, "4-ary AT") {
		t.Error("Figure 2 must compare both strategies")
	}
	if !strings.Contains(out, "[0:1]") {
		t.Error("Figure 5 missing first-phase comparators")
	}
}

// TestFig2StarVsTree: the Figure 2 phenomenon in numbers — for a single
// block read by a whole row, the fixed home's star pattern concentrates
// more bytes on its busiest link than the access tree's multicast.
func TestFig2StarVsTree(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf, true, 7)
	if err := r.Fig2(); err != nil {
		t.Fatal(err)
	}
	// Shape assertion via the underlying machines.
	congestion := func(s strategyUnderTest) uint64 {
		m := r.machine(8, 8, s.fact, s.spec)
		owner := 8*4 + 4
		v := m.AllocAt(owner, 4096, "x")
		if err := m.Run(func(p *core.Proc) {
			if p.ID/8 == 4 {
				p.Read(v)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return m.Net.Congestion(nil).MaxBytes
	}
	fh := congestion(fhStrategy())
	at := congestion(atStrategy(decomp.Ary4))
	if at >= fh {
		t.Fatalf("access tree multicast congestion %d not below fixed home star %d", at, fh)
	}
}

// TestFig3QuickShapes runs the scaled-down Figure 3 measurements directly
// and asserts the orderings the paper reports.
func TestFig3QuickShapes(t *testing.T) {
	r := New(&bytes.Buffer{}, true, 3)
	hand, err := r.runMatmul(8, 256, nil, decomp.Ary2)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := r.runMatmul(8, 256, fixedhome.Factory(), decomp.Ary4)
	if err != nil {
		t.Fatal(err)
	}
	at, err := r.runMatmul(8, 256, accesstree.Factory(), decomp.Ary4)
	if err != nil {
		t.Fatal(err)
	}
	if !(hand.congBytes < at.congBytes && at.congBytes < fh.congBytes) {
		t.Fatalf("congestion ordering violated: hand=%d at=%d fh=%d",
			hand.congBytes, at.congBytes, fh.congBytes)
	}
	if !(hand.timeUS < at.timeUS && at.timeUS < fh.timeUS) {
		t.Fatalf("time ordering violated: hand=%.0f at=%.0f fh=%.0f",
			hand.timeUS, at.timeUS, fh.timeUS)
	}
}

// TestFig4ScalingShape: the access tree's advantage must grow with the
// network size (the paper's headline claim).
func TestFig4ScalingShape(t *testing.T) {
	r := New(&bytes.Buffer{}, true, 4)
	ratio := func(side int) float64 {
		fh, err := r.runMatmul(side, 256, fixedhome.Factory(), decomp.Ary4)
		if err != nil {
			t.Fatal(err)
		}
		at, err := r.runMatmul(side, 256, accesstree.Factory(), decomp.Ary4)
		if err != nil {
			t.Fatal(err)
		}
		return float64(at.congBytes) / float64(fh.congBytes)
	}
	small, large := ratio(4), ratio(16)
	if large >= small {
		t.Fatalf("AT/FH congestion ratio did not improve with size: %4x4=%.2f 16x16=%.2f",
			'=', small, large)
	}
}

// TestFig6BitonicShapes: bitonic orderings.
func TestFig6BitonicShapes(t *testing.T) {
	r := New(&bytes.Buffer{}, true, 5)
	hand, err := r.runBitonic(8, 512, nil, decomp.Ary2)
	if err != nil {
		t.Fatal(err)
	}
	at, err := r.runBitonic(8, 512, accesstree.Factory(), decomp.Ary2K4)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := r.runBitonic(8, 512, fixedhome.Factory(), decomp.Ary2)
	if err != nil {
		t.Fatal(err)
	}
	if !(hand.congBytes < at.congBytes && at.congBytes < fh.congBytes) {
		t.Fatalf("congestion ordering violated: hand=%d at=%d fh=%d",
			hand.congBytes, at.congBytes, fh.congBytes)
	}
	if !(at.timeUS < fh.timeUS) {
		t.Fatalf("access tree (%.0f) not faster than fixed home (%.0f)", at.timeUS, fh.timeUS)
	}
}

// TestFig8OrderingQuick: the Barnes-Hut strategy ordering at miniature
// scale — congestion decreases with tree depth, fixed home worst.
func TestFig8OrderingQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("barnes-hut sweep in short mode")
	}
	r := New(&bytes.Buffer{}, true, 6)
	cong := make(map[string]uint64)
	for _, s := range []strategyUnderTest{
		fhStrategy(), atStrategy(decomp.Ary16), atStrategy(decomp.Ary4), atStrategy(decomp.Ary2),
	} {
		row, err := r.runBarnesHut(4, 4, 600, s)
		if err != nil {
			t.Fatal(err)
		}
		cong[s.name] = row.total.Cong.MaxMsgs
	}
	if !(cong["2-ary AT"] <= cong["4-ary AT"] &&
		cong["4-ary AT"] <= cong["16-ary AT"] &&
		cong["16-ary AT"] < cong["fixed home"]) {
		t.Fatalf("congestion ordering violated: %v", cong)
	}
}

// TestRunAllQuickFast exercises the fast figures end to end.
func TestRunAllQuickFast(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf, true, 9)
	for _, fig := range []string{"1", "5", "ablation-arity", "ablation-embed"} {
		if err := r.Run(fig); err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
	}
	if err := r.Run("nope"); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if len(buf.String()) < 200 {
		t.Fatal("suspiciously little output")
	}
}

// TestTopologiesSweepDeterministic: the cross-topology sweep must emit
// byte-identical output whether its cells run sequentially or fanned out
// across the worker pool, and the quick-mode output at the canonical seed
// is pinned by a golden fingerprint: a change here means the simulated
// cross-topology results changed, not just the formatting.
func TestTopologiesSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-topology barnes-hut sweep in short mode")
	}
	var seq bytes.Buffer
	rs := New(&seq, true, 1999)
	if err := rs.Run("topologies"); err != nil {
		t.Fatal(err)
	}
	var par bytes.Buffer
	rp := New(&par, true, 1999)
	rp.Workers = 4
	if err := rp.Run("topologies"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel sweep output differs from sequential:\n--- sequential\n%s\n--- parallel\n%s",
			seq.String(), par.String())
	}
	out := seq.String()
	for _, want := range []string{"4x4 mesh", "4x4 torus", "4-cube", "depth-4 fat-tree", "fixed home", "2-ary AT"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q", want)
		}
	}
	// Golden fingerprint of the quick-mode sweep at seed 1999 (FNV-1a).
	const golden = uint64(0x8a4b5d10c2f40df9)
	if got := fnv1a(seq.Bytes()); got != golden {
		t.Errorf("sweep output fingerprint = %#x, want %#x (simulated results changed)", got, golden)
	}
}

// TestFaultsSweepDeterministic: the degradation sweep must emit
// byte-identical output whether its cells run sequentially or fanned out
// across the worker pool, and the quick-mode output at the canonical seed
// is pinned by a golden fingerprint: a change here means the simulated
// degradation results changed, not just the formatting.
func TestFaultsSweepDeterministic(t *testing.T) {
	var seq bytes.Buffer
	rs := New(&seq, true, 1999)
	if err := rs.Run("faults"); err != nil {
		t.Fatal(err)
	}
	var par bytes.Buffer
	rp := New(&par, true, 1999)
	rp.Workers = 4
	if err := rp.Run("faults"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel sweep output differs from sequential:\n--- sequential\n%s\n--- parallel\n%s",
			seq.String(), par.String())
	}
	out := seq.String()
	for _, want := range []string{"graph:degraded", "fixedhome", "at4", "availability", "stretch"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q", want)
		}
	}
	// The zero-fault row must report full availability and no stretch, and
	// some faulty cell must actually degrade.
	if !strings.Contains(out, "100%") {
		t.Error("no cell reports 100% availability")
	}
	// Golden fingerprint of the quick-mode sweep at seed 1999 (FNV-1a).
	const golden = uint64(0x2808aae7f0099a8a)
	if got := fnv1a(seq.Bytes()); got != golden {
		t.Errorf("sweep output fingerprint = %#x, want %#x (simulated results changed)", got, golden)
	}
}

// TestRecoverySweepDeterministic: the oracle-vs-reactive recovery sweep
// must emit byte-identical output whether its cells run sequentially or
// fanned out across the worker pool, and the quick-mode output at the
// canonical seed is pinned by a golden fingerprint: a change here means
// the simulated recovery results changed, not just the formatting.
func TestRecoverySweepDeterministic(t *testing.T) {
	var seq bytes.Buffer
	rs := New(&seq, true, 1999)
	if err := rs.Run("recovery"); err != nil {
		t.Fatal(err)
	}
	var par bytes.Buffer
	rp := New(&par, true, 1999)
	rp.Workers = 4
	if err := rp.Run("recovery"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel sweep output differs from sequential:\n--- sequential\n%s\n--- parallel\n%s",
			seq.String(), par.String())
	}
	out := seq.String()
	for _, want := range []string{"oracle", "reactive", "graph:degraded", "fixedhome", "at4", "failover+reissue"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q", want)
		}
	}
	// Golden fingerprint of the quick-mode sweep at seed 1999 (FNV-1a).
	const golden = uint64(0x5a247a650af57b2d)
	if got := fnv1a(seq.Bytes()); got != golden {
		t.Errorf("sweep output fingerprint = %#x, want %#x (simulated results changed)", got, golden)
	}
}

// TestFig8InFigureFanOut: the Figure 8 five-strategy Barnes-Hut sweep must
// emit byte-identical output whether its (strategy, N) cells run
// sequentially or fanned out across the worker pool, and the quick-mode
// output at the canonical seed is pinned by a golden fingerprint: a change
// here means the simulated sweep results changed, not just the formatting.
func TestFig8InFigureFanOut(t *testing.T) {
	if testing.Short() {
		t.Skip("barnes-hut strategy sweep in short mode")
	}
	var seq bytes.Buffer
	rs := New(&seq, true, 1999)
	if err := rs.Run("8"); err != nil {
		t.Fatal(err)
	}
	var par bytes.Buffer
	rp := New(&par, true, 1999)
	rp.Workers = 4
	if err := rp.Run("8"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("fanned-out Figure 8 output differs from sequential:\n--- sequential\n%s\n--- parallel\n%s",
			seq.String(), par.String())
	}
	// Golden fingerprint of the quick-mode figure at seed 1999 (FNV-1a).
	const golden = uint64(0x90d69ced226709b8)
	if got := fnv1a(seq.Bytes()); got != golden {
		t.Errorf("figure 8 output fingerprint = %#x, want %#x (simulated results changed)", got, golden)
	}
}

// TestRatioFiguresInFigureFanOut: the matmul and bitonic ratio figures
// (3, 4, 6, 7) must emit byte-identical output whether their
// (parameter, strategy) cells run sequentially or fanned out across the
// shared worker pool, and each quick-mode output at the canonical seed is
// pinned by a golden fingerprint: a change means the simulated ratio
// results changed, not just the formatting.
func TestRatioFiguresInFigureFanOut(t *testing.T) {
	if testing.Short() {
		t.Skip("ratio figure sweeps in short mode")
	}
	for _, fig := range []string{"3", "4", "6", "7"} {
		fig := fig
		t.Run("fig"+fig, func(t *testing.T) {
			t.Parallel()
			var seq bytes.Buffer
			rs := New(&seq, true, 1999)
			if err := rs.Run(fig); err != nil {
				t.Fatal(err)
			}
			var par bytes.Buffer
			rp := New(&par, true, 1999)
			rp.Workers = 4
			if err := rp.Run(fig); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seq.Bytes(), par.Bytes()) {
				t.Fatalf("fanned-out figure %s output differs from sequential:\n--- sequential\n%s\n--- parallel\n%s",
					fig, seq.String(), par.String())
			}
			// Golden fingerprints of the quick-mode figures at seed 1999
			// (FNV-1a); the sequential output was verified byte-identical
			// to the pre-fan-out implementation when these were captured.
			want := map[string]uint64{
				"3": 0x41415e6be0ccd73c,
				"4": 0x117b29f48968f308,
				"6": 0x243822e0eebdd27e,
				"7": 0xeed5106aff0d24e5,
			}[fig]
			if got := fnv1a(seq.Bytes()); got != want {
				t.Errorf("figure %s output fingerprint = %#x, want %#x (simulated results changed)", fig, got, want)
			}
		})
	}
}

// fnv1a is the 64-bit FNV-1a hash (inlined to keep the golden value
// self-contained).
func fnv1a(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// TestAblationEmbeddingShape: the modular embedding must not be slower
// than the fully random one (it shortens expected tree-edge routes).
func TestAblationEmbeddingShape(t *testing.T) {
	times := make(map[bool]float64)
	for _, random := range []bool{false, true} {
		m := coreMachine(8, accesstree.FactoryOpts(accesstree.Options{RandomEmbedding: random}))
		el, err := runMatmulOn(m, 256, 11)
		if err != nil {
			t.Fatal(err)
		}
		times[random] = el
	}
	if times[false] > times[true]*1.15 {
		t.Fatalf("modular embedding (%.0f) much slower than random (%.0f)",
			times[false], times[true])
	}
}

// TestTableFormatting pins the column alignment helper.
func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	table(&buf, [][]string{{"a", "bb"}, {"ccc", "d"}})
	want := "a    bb\nccc  d\n"
	if buf.String() != want {
		t.Fatalf("table output %q, want %q", buf.String(), want)
	}
	table(&buf, nil) // must not panic
}
