package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"diva/spec"
)

// mustRun runs one cell and fails the test on error.
func mustRun(t *testing.T, c cell) result {
	t.Helper()
	res, err := c.run()
	if err != nil {
		t.Fatal(err)
	}
	return res
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
	if err := New(&buf, true, 7).Run("2"); err != nil {
		t.Fatal(err)
	}
	congestion := func(strat string) uint64 {
		m, err := rowRead(7, 8, strat)
		if err != nil {
			t.Fatal(err)
		}
		return m.Net.Congestion(nil).MaxBytes
	}
	fh, at := congestion("fixedhome"), congestion("at4")
	if at >= fh {
		t.Fatalf("access tree multicast congestion %d not below fixed home star %d", at, fh)
	}
}

// TestFig3QuickShapes runs the scaled-down Figure 3 measurements directly
// and asserts the orderings the paper reports.
func TestFig3QuickShapes(t *testing.T) {
	c := fig3.ratioCells(3, 8, 256)
	hand, fh, at := mustRun(t, c[0]), mustRun(t, c[1]), mustRun(t, c[2])
	if !(hand.cong.MaxBytes < at.cong.MaxBytes && at.cong.MaxBytes < fh.cong.MaxBytes) {
		t.Fatalf("congestion ordering violated: hand=%d at=%d fh=%d",
			hand.cong.MaxBytes, at.cong.MaxBytes, fh.cong.MaxBytes)
	}
	if !(hand.elapsedUS < at.elapsedUS && at.elapsedUS < fh.elapsedUS) {
		t.Fatalf("time ordering violated: hand=%.0f at=%.0f fh=%.0f",
			hand.elapsedUS, at.elapsedUS, fh.elapsedUS)
	}
}

// TestFig4ScalingShape: the access tree's advantage must grow with the
// network size (the paper's headline claim).
func TestFig4ScalingShape(t *testing.T) {
	ratio := func(side int) float64 {
		c := fig4.ratioCells(4, side, 256)
		fh, at := mustRun(t, c[1]), mustRun(t, c[2])
		return float64(at.cong.MaxBytes) / float64(fh.cong.MaxBytes)
	}
	small, large := ratio(4), ratio(16)
	if large >= small {
		t.Fatalf("AT/FH congestion ratio did not improve with size: 4x4=%.2f 16x16=%.2f", small, large)
	}
}

// TestFig6BitonicShapes: bitonic orderings.
func TestFig6BitonicShapes(t *testing.T) {
	c := fig6.ratioCells(5, 8, 512)
	hand, fh, at := mustRun(t, c[0]), mustRun(t, c[1]), mustRun(t, c[2])
	if !(hand.cong.MaxBytes < at.cong.MaxBytes && at.cong.MaxBytes < fh.cong.MaxBytes) {
		t.Fatalf("congestion ordering violated: hand=%d at=%d fh=%d",
			hand.cong.MaxBytes, at.cong.MaxBytes, fh.cong.MaxBytes)
	}
	if !(at.elapsedUS < fh.elapsedUS) {
		t.Fatalf("access tree (%.0f) not faster than fixed home (%.0f)", at.elapsedUS, fh.elapsedUS)
	}
}

// TestFig8OrderingQuick: the Barnes-Hut strategy ordering at miniature
// scale — congestion decreases with tree depth, fixed home worst.
func TestFig8OrderingQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("barnes-hut sweep in short mode")
	}
	r := New(&bytes.Buffer{}, true, 6)
	steps, from := r.bhSteps()
	cong := make(map[string]uint64)
	for _, strat := range []string{"fixedhome", "at16", "at4", "at2"} {
		cong[strat] = mustRun(t, r.barnesHut(4, 4, strat, 600, steps, from)).total.Cong.MaxMsgs
	}
	if !(cong["at2"] <= cong["at4"] && cong["at4"] <= cong["at16"] && cong["at16"] < cong["fixedhome"]) {
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
	const golden = uint64(0x4a734d3d3508d224)
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
	times := make(map[string]float64)
	for _, strat := range []string{"at4", "atrandom"} {
		times[strat] = mustRun(t, cell{spec: spec.Spec{Rows: 8, Cols: 8, Strategy: strat, Seed: 8,
			Workload: spec.Workload{Name: "matmul", Block: 256, Seed: 11}}}).elapsedUS
	}
	if times["at4"] > times["atrandom"]*1.15 {
		t.Fatalf("modular embedding (%.0f) much slower than random (%.0f)", times["at4"], times["atrandom"])
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

// TestQuickSuitePinned: the whole quick suite at the canonical seed must
// emit byte-identical output sequentially and on four workers, and that
// output is pinned by a golden fingerprint, so every figure — the shape-only
// ones included — is covered: a change here means some figure's simulated
// results or formatting changed.
func TestQuickSuitePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("whole quick suite in short mode")
	}
	var seq bytes.Buffer
	if err := New(&seq, true, 1999).RunAll(); err != nil {
		t.Fatal(err)
	}
	var par bytes.Buffer
	rp := New(&par, true, 1999)
	rp.Workers = 4
	if err := rp.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("quick suite on 4 workers differs from sequential:\n--- sequential\n%s\n--- parallel\n%s",
			seq.String(), par.String())
	}
	// Golden fingerprint of `experiments -quick` at seed 1999 (FNV-1a):
	// 314 lines, sha256 c848676c0f26e4a0....
	const golden = uint64(0x629cfd600c9f6a21)
	if got := fnv1a(seq.Bytes()); got != golden {
		t.Errorf("quick suite fingerprint = %#x, want %#x (simulated results changed)", got, golden)
	}
}

// TestZeroValueRunner: a Runner written as a struct literal, without New,
// runs the Barnes-Hut figures too (their output is pinned by
// TestQuickSuitePinned).
func TestZeroValueRunner(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Runner{W: &buf, Quick: true, Seed: 1999}).Run("11"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "Figure 11: ") || !strings.Contains(buf.String(), "8x8") {
		t.Fatalf("struct-literal runner printed\n%s", buf.String())
	}
}

// TestFailingCellStopsTheRun: a cell whose description does not build
// fails its figure with the figure's name, figures before it still print,
// and none after it does.
func TestFailingCellStopsTheRun(t *testing.T) {
	plans["broken"] = func(*Runner) figure {
		bad := cell{spec: spec.Spec{Rows: 4, Cols: 4, Strategy: "nope", Workload: spec.Workload{Name: "matmul"}}}
		return figure{cells: []cell{bad}, print: func(w io.Writer, _ []result) error {
			t.Error("printed a figure whose cell failed")
			return nil
		}}
	}
	defer delete(plans, "broken")
	var buf bytes.Buffer
	r := &Runner{W: &buf, Quick: true, Seed: 1, Workers: 2}
	err := r.RunFigures([]string{"1", "broken", "5"})
	if err == nil || !strings.Contains(err.Error(), "figure broken:") || !strings.Contains(err.Error(), "strategy") {
		t.Fatalf("error = %v, want the broken figure's strategy error", err)
	}
	if out := buf.String(); !strings.Contains(out, "Figure 1") || strings.Contains(out, "Figure 5") {
		t.Fatalf("output of the failed run:\n%s", out)
	}
	if err := r.Run("nope"); err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("unknown figure: error = %v", err)
	}
}
