package snapstore_test

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"diva"
	"diva/snapstore"
	"diva/spec"
)

// refSpec is the reference snapshot of this package's benchmarks: the
// machine the repo benchmark's warm-state workload restores most, warmed
// with pointer-heavy payloads (mesh 8×8 at4, Barnes-Hut 600 bodies × 2
// steps: 910 live variables, a ~310 KB file).
func refSpec() spec.Spec {
	sp := machineSpec("mesh", "at4", 8, 8)
	sp.Workload = spec.Workload{Name: "barneshut", Bodies: 600, Steps: 2, MeasureFrom: 1}
	return sp
}

// warmSnapshot builds sp's machine, runs its warm-up workload and captures
// the result.
func warmSnapshot(tb testing.TB, sp spec.Spec) *diva.Snapshot {
	tb.Helper()
	m, warm, err := diva.FromSpec(sp, diva.WithConcurrent(true))
	if err != nil {
		tb.Fatalf("FromSpec: %v", err)
	}
	if _, err := warm.Run(m, nil); err != nil {
		tb.Fatalf("%s: %v", warm.Name(), err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		tb.Fatalf("Snapshot: %v", err)
	}
	return snap
}

// savedRef stores the reference snapshot in a fresh store and returns the
// store, the handle, the snapshot and the file size.
func savedRef(tb testing.TB) (*snapstore.Store, string, *diva.Snapshot, int64) {
	tb.Helper()
	sp := refSpec()
	snap := warmSnapshot(tb, sp)
	st, err := snapstore.Open(tb.TempDir())
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	handle := snapstore.Handle(sp)
	if err := st.Save(handle, sp, snap); err != nil {
		tb.Fatalf("Save: %v", err)
	}
	fi, err := os.Stat(filepath.Join(st.Dir(), handle+".snap"))
	if err != nil {
		tb.Fatal(err)
	}
	return st, handle, snap, fi.Size()
}

func BenchmarkSave(b *testing.B) {
	st, handle, snap, size := savedRef(b)
	sp := refSpec()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Save(handle, sp, snap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoad(b *testing.B) {
	st, handle, _, size := savedRef(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Load(handle, diva.WithConcurrent(true)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadAllocBudget pins the restore path's cost and the file's size:
// the reference snapshot's file may take at most 330 KB, and one Load of it
// may allocate at most 480 KB in 100 objects (measured: 310 KB; 452 KB in
// 82 objects, against 657 KB when the file held dense tables). The file
// buffer is recycled, and the decoded tables, values and the rebuilt
// machine are the floor; a per-variable or per-node allocation creeping
// back in breaks the budget. Each Load is measured alone and the worst of
// five is judged: the buffer waits on a shelf that no garbage collection
// empties, so no Load after the first allocates the file again.
func TestLoadAllocBudget(t *testing.T) {
	st, handle, _, size := savedRef(t)
	load := func() {
		if _, _, err := st.Load(handle, diva.WithConcurrent(true)); err != nil {
			t.Fatal(err)
		}
	}
	load() // the first Load allocates the file buffer the others recycle
	const runs = 5
	var bytes, objs [runs]float64
	for i := range runs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		load()
		runtime.ReadMemStats(&after)
		bytes[i] = float64(after.TotalAlloc - before.TotalAlloc)
		objs[i] = float64(after.Mallocs - before.Mallocs)
	}
	b, n := slices.Max(bytes[:]), slices.Max(objs[:])
	t.Logf("file %d bytes; one Load allocates %.0f bytes in %.0f objects", size, b, n)
	if size > 330_000 {
		t.Errorf("the reference file has %d bytes, budget 330 KB", size)
	}
	if b > 480_000 {
		t.Errorf("Load allocates %.0f bytes, budget 480 KB", b)
	}
	if n > 100 {
		t.Errorf("Load allocates %.0f objects, budget 100", n)
	}
}
