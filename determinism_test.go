// Determinism regression tests for the allocation-free event kernel.
//
// The simulator's contract is bit-for-bit reproducibility: the same seed
// must produce the same event order, the same congestion counters and the
// same simulated time — across repeated runs, and across refactors of the
// kernel internals. The golden values below were captured from the seed
// implementation (container/heap kernel, closure-based delivery, map-based
// access tree state) and pin the simulated results through the hot-path
// rewrite.
package diva_test

import (
	"bytes"
	"testing"

	"diva/internal/apps/barneshut"
	"diva/internal/apps/matmul"
	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/core/fixedhome"
	"diva/internal/decomp"
	"diva/internal/experiments"
	"diva/internal/mesh"
	"diva/internal/metrics"
)

// detRun holds everything a simulation run exposes about its trajectory.
type detRun struct {
	fingerprint uint64
	elapsedUS   float64
	cong        mesh.Congestion
	sendMsgs    [mesh.NumKinds]uint64
	sendBytes   [mesh.NumKinds]uint64
}

// runMatmulDet runs the 8x8 matmul workload used as determinism probe.
func runMatmulDet(t *testing.T, f core.Factory) detRun {
	t.Helper()
	m := core.MustNewMachine(core.Config{
		Rows: 8, Cols: 8, Seed: 1999, Tree: decomp.Ary4, Strategy: f,
	})
	res, err := matmul.RunDSM(m, matmul.Config{BlockInts: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := detRun{
		fingerprint: m.K.Fingerprint(),
		elapsedUS:   res.ElapsedUS,
		cong:        m.Net.Congestion(nil),
	}
	r.sendMsgs, r.sendBytes = m.Net.SendStats()
	return r
}

// TestDeterminismTwoRunsIdentical: two runs of the same seed must execute
// the exact same event sequence (same kernel fingerprint) and produce the
// same metrics.
func TestDeterminismTwoRunsIdentical(t *testing.T) {
	a := runMatmulDet(t, accesstree.Factory())
	b := runMatmulDet(t, accesstree.Factory())
	if a.fingerprint == 0 {
		t.Fatal("kernel fingerprint not collected")
	}
	if a != b {
		t.Fatalf("two runs of the same seed diverged:\n  run1: %+v\n  run2: %+v", a, b)
	}
}

// TestGoldenSeedValues pins the simulated results to the values measured
// on the seed implementation, before the allocation-free kernel rewrite.
// A failure here means the simulation semantics changed, not just its
// speed.
func TestGoldenSeedValues(t *testing.T) {
	at := runMatmulDet(t, accesstree.Factory())
	if at.elapsedUS != 109496 {
		t.Errorf("matmul AT elapsed = %v us, want 109496 (seed golden)", at.elapsedUS)
	}
	want := mesh.Congestion{MaxMsgs: 118, MaxBytes: 39528, TotalMsgs: 12126, TotalBytes: 3493560}
	if at.cong != want {
		t.Errorf("matmul AT congestion = %+v, want %+v (seed golden)", at.cong, want)
	}
	var sm, sb uint64
	for i := range at.sendMsgs {
		sm += at.sendMsgs[i]
		sb += at.sendBytes[i]
	}
	if sm != 7136 || sb != 1956288 {
		t.Errorf("matmul AT send stats = %d msgs / %d bytes, want 7136 / 1956288 (seed golden)", sm, sb)
	}

	fh := runMatmulDet(t, fixedhome.Factory())
	if fh.elapsedUS != 153072 {
		t.Errorf("matmul FH elapsed = %v us, want 153072 (seed golden)", fh.elapsedUS)
	}
	wantFH := mesh.Congestion{MaxMsgs: 185, MaxBytes: 68440, TotalMsgs: 21256, TotalBytes: 5704896}
	if fh.cong != wantFH {
		t.Errorf("matmul FH congestion = %+v, want %+v (seed golden)", fh.cong, wantFH)
	}
}

// TestGoldenBarnesHut pins the Barnes-Hut workload (the paper's — and the
// profile's — main driver) to its seed-captured trajectory.
func TestGoldenBarnesHut(t *testing.T) {
	m := core.MustNewMachine(core.Config{
		Rows: 4, Cols: 4, Seed: 1999, Tree: decomp.Ary4,
		Strategy: accesstree.Factory(),
	})
	col := metrics.New(m.Net)
	_, err := barneshut.Run(m, barneshut.Config{
		N: 400, Steps: 3, MeasureFrom: 1, Seed: 3, WithCompute: true,
	}, col)
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

// TestParallelRunnerByteIdentical: the experiments runner must emit the
// exact same bytes whether figures run sequentially or on a worker pool.
func TestParallelRunnerByteIdentical(t *testing.T) {
	figs := []string{"1", "2", "5", "8", "ablation-embed", "ablation-arity"}
	if testing.Short() {
		figs = []string{"1", "2", "5", "ablation-embed"}
	}
	var seq bytes.Buffer
	rs := experiments.New(&seq, true, 1999)
	if err := rs.RunFigures(figs); err != nil {
		t.Fatal(err)
	}
	var par bytes.Buffer
	rp := experiments.New(&par, true, 1999)
	rp.Workers = 4
	if err := rp.RunFigures(figs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel runner output differs from sequential:\n--- sequential (%d bytes)\n%s\n--- parallel (%d bytes)\n%s",
			seq.Len(), seq.String(), par.Len(), par.String())
	}
}
