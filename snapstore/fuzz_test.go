package snapstore_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"diva"
	"diva/snapstore"
	"diva/spec"
)

// FuzzLoad feeds arbitrary bytes to the store as a snapshot file. Whatever
// they are, List and Load return — an error, or a snapshot that forks, and
// whose fork makes every variable and snapshots again — without panicking and without allocating more than a constant multiple
// of the input, plus a constant for the machine the spec rebuilds (≈ 2 MB
// for the largest one tooLarge lets through) and its fork. The state
// section's reader checks every length against the bytes left before it
// allocates, so the multiple is the ratio of a decoded value's size to
// its encoding's. Every input is tried twice, as it is and under a
// matching checksum, so that mutations reach the decoders behind the
// checksum. The seeds are files of the current layout, among them an 8×8
// at4 machine whose node tables are part entries, part full.
func FuzzLoad(f *testing.F) {
	matmul := spec.Workload{Name: "matmul", Block: 64, Seed: 1}
	bare := spec.Spec{Topology: "mesh", Rows: 4, Cols: 4, Tree: "2-ary", Seed: 1999,
		Workload: spec.Workload{Name: "stencil", Iters: 2, Halo: 32, Compute: true, Seed: 7}}
	// A reactive machine with a drawn fault schedule: its file carries the
	// transport's channel table.
	reactive := machineSpec("mesh", "fixedhome", 4, 4)
	reactive.Fault = &spec.Fault{LinkFailures: 3, NodeChurn: 1, MeanDownUS: 20000, HorizonUS: 100000}
	reactive.Recovery = spec.RecoveryReactive
	reactive.AckTimeoutUS, reactive.MaxRetries = 500, 3
	seedDir := f.TempDir()
	for _, sp := range []spec.Spec{machineSpec("mesh", "at4", 4, 4), machineSpec("mesh", "at4", 8, 8), machineSpec("torus", "fixedhome", 4, 4), bare, reactive} {
		if sp.Workload.Name == "" {
			sp.Workload = matmul
		}
		st, err := snapstore.Open(seedDir)
		if err != nil {
			f.Fatal(err)
		}
		handle := snapstore.Handle(sp)
		if err := st.Save(handle, sp, warmSnapshot(f, sp)); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(seedDir, handle+".snap"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		off := fileSections(f, data)
		for i := 1; i < len(off); i++ {
			f.Add(data[:off[i]-1]) // torn inside a part
			f.Add(data[:off[i]])   // torn at a boundary
			if off[i-1] < off[i] {
				flipped := append([]byte(nil), data...)
				flipped[(off[i-1]+off[i])/2] ^= 0x10
				f.Add(flipped)
			}
		}
		long := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(long[16:], 1<<40) // a table section larger than the file
		f.Add(long)
		f.Add(append([]byte("DIVASNP8"), data[8:]...))
	}

	dir := f.TempDir()
	const handle = "0123456789abcdef"
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := snapstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := [][]byte{data}
		if len(data) >= 8 {
			files = append(files, stamp(append([]byte(nil), data[:len(data)-8]...)))
		}
		for _, file := range files {
			if err := os.WriteFile(filepath.Join(dir, handle+".snap"), file, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			entries, err := st.List()
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			// A file names its machine, and a mutated spec can name one too
			// large to build in a fuzz iteration; the spec layer is not
			// what is fuzzed here.
			if len(entries) == 1 && tooLarge(entries[0].Spec) {
				continue
			}
			_, snap, err := st.Load(handle, diva.WithConcurrent(true))
			var fork *diva.Machine
			if err == nil {
				if fork, err = diva.Fork(snap); err != nil {
					t.Errorf("Load accepted a snapshot that does not fork: %v", err)
				}
			}
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(file)+16<<20); got > limit {
				t.Errorf("%d bytes allocated for a %d-byte file (limit %d)", got, len(file), limit)
			}
			// A fork makes its record of a variable when it first reaches
			// it; a snapshot of the fork reaches every one.
			if fork != nil {
				if _, err := fork.Snapshot(); err != nil {
					t.Errorf("a fork of an accepted snapshot does not snapshot: %v", err)
				}
			}
		}
	})
}

func tooLarge(sp spec.Spec) bool {
	if sp.Rows < 0 || sp.Cols < 0 || sp.Rows > 64 || sp.Cols > 64 || sp.Rows*sp.Cols > 256 {
		return true
	}
	if ft := sp.Fault; ft != nil && (len(ft.Events) > 64 || ft.LinkFailures > 64 || ft.NodeChurn > 64) {
		return true
	}
	return false
}
