// Disk A/B tests for the snapshot store: a snapshot saved to disk, loaded
// back — through a fresh Store, as after a process restart — and forked
// must replay the query workload bit-identically to a fork of the live
// snapshot, across the topology × strategy matrix, on strategy-free
// machines, with bounded caches, and with pointer-heavy variable payloads
// (Barnes-Hut). Plus the crash-consistency format checks: checksum,
// truncation, stray temp files.
package snapstore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"diva"
	"diva/snapstore"
	"diva/spec"
)

// traj is one run's observable trajectory after the query workload.
type traj struct {
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

func capture(t *testing.T, m *diva.Machine, res diva.Result) traj {
	t.Helper()
	c := m.Net.Congestion(nil)
	msgs, bytes := m.Net.SendStats()
	var sm, sb uint64
	for k := range msgs {
		sm += msgs[k]
		sb += bytes[k]
	}
	return traj{
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

func mustRun(t *testing.T, m *diva.Machine, w diva.Workload) diva.Result {
	t.Helper()
	res, err := w.Run(m, nil)
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return res
}

func forkQuery(t *testing.T, snap *diva.Snapshot, query diva.Workload) traj {
	t.Helper()
	f, err := diva.Fork(snap, diva.ForkConcurrent(true))
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	return capture(t, f, mustRun(t, f, query))
}

// checkDiskAB pins the store contract for one cell: warm a machine from
// sp, snapshot it, and compare a fork of the live snapshot against a fork
// of the snapshot after a save/load round trip through a fresh Store
// instance (a process restart in miniature).
func checkDiskAB(t *testing.T, sp spec.Spec, query diva.Workload) {
	t.Helper()
	m, warm, err := diva.FromSpec(sp, diva.WithConcurrent(true))
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	mustRun(t, m, warm)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	base := forkQuery(t, snap, query)
	if base.fingerprint == 0 {
		t.Fatal("no fingerprint collected")
	}

	dir := t.TempDir()
	st, err := snapstore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	handle := snapstore.Handle(sp)
	if err := st.Save(handle, sp, snap); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// A fresh Store on the same directory stands in for a restarted
	// process: nothing survives but the file.
	st2, err := snapstore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	spLoaded, snap2, err := st2.Load(handle, diva.WithConcurrent(true))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := forkQuery(t, snap2, query); got != base {
		t.Errorf("fork from disk diverged from fork from live snapshot:\n disk: %+v\n live: %+v", got, base)
	}

	// The stored spec is the run description the snapshot was saved under.
	if got := snapstore.Handle(spLoaded); got != handle {
		t.Errorf("stored spec %+v has handle %s, want %s", spLoaded, got, handle)
	}

	// Saving the same snapshot again replaces the file atomically and
	// loads identically.
	if err := st2.Save(handle, sp, snap); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	if _, snap3, err := st2.Load(handle, diva.WithConcurrent(true)); err != nil {
		t.Fatalf("re-Load: %v", err)
	} else if got := forkQuery(t, snap3, query); got != base {
		t.Errorf("fork after re-save diverged:\n disk: %+v\n live: %+v", got, base)
	}
}

func machineSpec(topo, strat string, rows, cols int) spec.Spec {
	return spec.Spec{Topology: topo, Rows: rows, Cols: cols, Strategy: strat, Seed: 1999}
}

// TestDiskABDSM is the disk round-trip matrix over topology × strategy
// cells, mirroring the live fork A/B matrix.
func TestDiskABDSM(t *testing.T) {
	cells := []struct{ topo, strat string }{
		{"mesh", "at4"},
		{"torus", "fixedhome"},
		{"hypercube", "at2"},
		{"fattree", "at4k8"},
	}
	query := diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16, Check: true, Seed: 2})
	for _, cell := range cells {
		cell := cell
		t.Run(cell.topo+"/"+cell.strat, func(t *testing.T) {
			sp := machineSpec(cell.topo, cell.strat, 8, 8)
			sp.Workload = spec.Workload{Name: "matmul", Block: 64, Seed: 1}
			checkDiskAB(t, sp, query)
		})
	}
}

// TestDiskABHandOpt pins the disk round trip on strategy-free machines,
// on a grid and on the fat tree.
func TestDiskABHandOpt(t *testing.T) {
	for _, topo := range []string{"mesh", "fattree"} {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			sp := spec.Spec{Topology: topo, Rows: 8, Cols: 8, Tree: "2-ary", Seed: 1999}
			sp.Workload = spec.Workload{Name: "stencil", Iters: 3, Halo: 32, Compute: true, Check: true, Seed: 7}
			checkDiskAB(t, sp, diva.BitonicHandOpt(diva.BitonicConfig{KeysPerProc: 32, Check: true, Seed: 9}))
		})
	}
}

// TestDiskABBoundedCache pins the disk round trip with a bounded cache:
// the entry set and eviction counters survive serialization.
func TestDiskABBoundedCache(t *testing.T) {
	sp := machineSpec("mesh", "at4", 4, 4)
	sp.CacheCapacity = 2048
	sp.Workload = spec.Workload{Name: "matmul", Block: 64, Seed: 1}
	checkDiskAB(t, sp, diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16, Check: true, Seed: 2}))
}

// TestDiskABBarnesHut exercises pointer-heavy variable payloads (bodies,
// tree cells, the root record) through the value codecs.
func TestDiskABBarnesHut(t *testing.T) {
	sp := machineSpec("mesh", "at4", 4, 4)
	sp.Workload = spec.Workload{Name: "barneshut", Bodies: 32, Steps: 2, MeasureFrom: 1}
	checkDiskAB(t, sp, diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16, Check: true, Seed: 2}))
}

// TestDiskABReactive pins the disk round trip for reactive-mode machines:
// the transport's captured state (per-node RNG positions, channel sequence
// counters, receiver dedup floors, suspect sets) must survive the
// save/load boundary so forks from disk replay the query — including its
// retransmissions and give-ups — bit-identically. The warm workload runs
// across a node outage, so the captured state is genuinely mid-recovery
// shaped, not pristine.
func TestDiskABReactive(t *testing.T) {
	outage := &spec.Fault{Events: []spec.FaultEvent{
		{AtUS: 200, Kind: "node-down", A: 5},
		{AtUS: 30000, Kind: "node-up", A: 5},
	}}
	t.Run("dsm", func(t *testing.T) {
		sp := machineSpec("mesh", "at4", 4, 4)
		sp.Fault = outage
		sp.Recovery = spec.RecoveryReactive
		sp.AckTimeoutUS, sp.MaxRetries, sp.Backoff = 500, 3, 2
		sp.Workload = spec.Workload{Name: "matmul", Block: 64, Seed: 1}
		checkDiskAB(t, sp, diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16, Check: true, Seed: 2}))
	})
	t.Run("handopt", func(t *testing.T) {
		sp := spec.Spec{Topology: "mesh", Rows: 4, Cols: 4, Tree: "2-ary", Seed: 1999}
		sp.Fault = outage
		sp.Recovery = spec.RecoveryReactive
		sp.Workload = spec.Workload{Name: "stencil", Iters: 3, Halo: 32, Compute: true, Check: true, Seed: 7}
		checkDiskAB(t, sp, diva.BitonicHandOpt(diva.BitonicConfig{KeysPerProc: 32, Check: true, Seed: 9}))
	})
}

// TestHandleStability pins the handle derivation: operational fields
// (timeout) do not change identity, machine fields do.
func TestHandleStability(t *testing.T) {
	sp := machineSpec("mesh", "at4", 8, 8)
	sp.Workload = spec.Workload{Name: "matmul", Block: 64, Seed: 1}
	h := snapstore.Handle(sp)
	if len(h) != 16 {
		t.Fatalf("Handle = %q, want 16 hex digits", h)
	}
	withTimeout := sp
	withTimeout.TimeoutMS = 5000
	if got := snapstore.Handle(withTimeout); got != h {
		t.Errorf("timeout changed the handle: %q vs %q", got, h)
	}
	otherSeed := sp
	otherSeed.Seed = 2000
	if got := snapstore.Handle(otherSeed); got == h {
		t.Errorf("seed change did not change the handle: both %q", h)
	}
}

// TestHandlePinned pins the handles of specs that leave every defaulted
// field zero. A handle hashes the normalized spec, so this pins each
// default Normalized fills in: a default that moves changes the identity
// of every stored snapshot written with it.
func TestHandlePinned(t *testing.T) {
	matmul := spec.Workload{Name: "matmul"}
	cases := []struct {
		name string
		sp   spec.Spec
		want string
	}{
		{"bare", spec.Spec{Strategy: "at4", Workload: matmul}, "7657df664eae5d88"},
		{"handopt", spec.Spec{Strategy: "handopt", Workload: spec.Workload{Name: "stencil"}}, "f64654915391abfa"},
		{"oracle", spec.Spec{Strategy: "at4", Recovery: "oracle", Workload: matmul}, "7657df664eae5d88"},
		{"reactive", spec.Spec{Strategy: "at4", Recovery: "reactive", Workload: matmul}, "581d6179df213aca"},
		{"drawn-fault", spec.Spec{Strategy: "fixedhome", Fault: &spec.Fault{LinkFailures: 2, NodeChurn: 1}, Workload: matmul}, "7e0c13612bac1dc0"},
		{"tree-2-ary", spec.Spec{Strategy: "at4", Tree: "2-ary", Workload: matmul}, "78bc389f23a01a25"},
		{"tree-4-ary", spec.Spec{Strategy: "at4", Tree: "4-ary", Workload: matmul}, "cf37f7ad65a25e67"},
		{"tree-16-ary", spec.Spec{Strategy: "at4", Tree: "16-ary", Workload: matmul}, "c596092048a38d16"},
		{"tree-2-4-ary", spec.Spec{Strategy: "at4", Tree: "2-4-ary", Workload: matmul}, "3091dc2ec65b9a5a"},
		{"tree-4-8-ary", spec.Spec{Strategy: "at4", Tree: "4-8-ary", Workload: matmul}, "bfa00dfc36045ae8"},
		{"tree-4-16-ary", spec.Spec{Strategy: "at4", Tree: "4-16-ary", Workload: matmul}, "0d8a32496f5baf93"},
	}
	for _, c := range cases {
		if got := snapstore.Handle(c.sp); got != c.want {
			t.Errorf("%s: Handle = %q, want %q", c.name, got, c.want)
		}
	}
}

// fileSections returns the offsets framing a DIVASNP9 file, as the package
// comment lays it out: header, the four sections, checksum, end of file.
func fileSections(t testing.TB, data []byte) [7]int {
	t.Helper()
	if len(data) < 48 || string(data[:8]) != "DIVASNP9" {
		t.Fatalf("not a DIVASNP9 file: %d bytes, starts %q", len(data), data[:min(8, len(data))])
	}
	off := [7]int{0, 40}
	for i := 0; i < 4; i++ {
		off[i+2] = off[i+1] + int(binary.LittleEndian.Uint64(data[8+8*i:]))
	}
	off[6] = off[5] + 8
	if off[6] != len(data) {
		t.Fatalf("sections end at %d, file has %d bytes", off[6], len(data))
	}
	return off
}

// stamp returns body under the checksum the package comment documents.
func stamp(body []byte) []byte {
	sum := uint64(crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))<<32 | uint64(crc32.ChecksumIEEE(body))
	return binary.LittleEndian.AppendUint64(body[:len(body):len(body)], sum)
}

// TestLoadRejectsCorruption pins the crash-consistency checks: a flipped
// byte in any part of the file, a truncated file and a bad handle all fail
// loudly; stray temp files are invisible to List.
func TestLoadRejectsCorruption(t *testing.T) {
	sp := machineSpec("mesh", "at4", 4, 4)
	sp.Workload = spec.Workload{Name: "matmul", Block: 64, Seed: 1}
	snap := warmSnapshot(t, sp)
	dir := t.TempDir()
	st, err := snapstore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	handle := snapstore.Handle(sp)
	if err := st.Save(handle, sp, snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := filepath.Join(dir, handle+".snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the middle of each part of the file — the section
	// lengths, the spec, the node tables, the bitmaps, the state section, the
	// checksum itself: checksum mismatch every time (a damaged length may
	// be caught by the framing check first).
	off := fileSections(t, data)
	for i, part := range []string{"header", "spec", "tables", "bitmaps", "state", "checksum"} {
		if off[i] == off[i+1] {
			t.Fatalf("%s section is empty, nothing to corrupt", part)
		}
		bad := append([]byte(nil), data...)
		bad[max(8, (off[i]+off[i+1])/2)] ^= 0x40 // past the magic
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, got, err := st.Load(handle)
		if err == nil || got != nil || !(strings.Contains(err.Error(), "checksum") || part == "header" && strings.Contains(err.Error(), "section")) {
			t.Errorf("byte flipped in the %s: snapshot %v, err = %v; want a checksum mismatch", part, got, err)
		}
	}

	// Truncate: a torn write must not decode.
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(handle); err == nil {
		t.Error("truncated file loaded")
	}

	// Restore and confirm the original still loads.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(handle, diva.WithConcurrent(true)); err != nil {
		t.Errorf("pristine file failed to load: %v", err)
	}

	// Handles are validated before touching the filesystem.
	if _, _, err := st.Load("../escape"); err == nil {
		t.Error("path-traversal handle accepted")
	}
	if _, _, err := st.Load("0123456789abcdeF"); err == nil {
		t.Error("non-canonical handle accepted")
	}

	// A stray temp file (crash mid-save) is skipped by List.
	if err := os.WriteFile(filepath.Join(dir, "."+handle+".tmp-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(entries) != 1 || entries[0].Handle != handle {
		t.Errorf("List = %+v, want exactly [%s]", entries, handle)
	}
	if entries[0].Spec.Workload.Name != "matmul" {
		t.Errorf("List entry spec lost the workload: %+v", entries[0].Spec)
	}
}

// TestLoadRejectsOldFormat: well-formed files of the previous format
// versions (valid checksum, old layouts behind the magic) are refused by
// their magic — Load reports it, List skips them — and never half-decoded
// into a machine.
func TestLoadRejectsOldFormat(t *testing.T) {
	sp := machineSpec("mesh", "fixedhome", 4, 4)
	sp.Workload = spec.Workload{Name: "matmul", Block: 64, Seed: 1}
	snap := warmSnapshot(t, sp)
	dir := t.TempDir()
	st, err := snapstore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	handle := snapstore.Handle(sp)
	if err := st.Save(handle, sp, snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := filepath.Join(dir, handle+".snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("DIVASNP9")) {
		t.Fatalf("file starts with %q, want DIVASNP9", data[:8])
	}
	for _, magic := range []string{"DIVASNP1", "DIVASNP2", "DIVASNP3", "DIVASNP4", "DIVASNP5", "DIVASNP6", "DIVASNP7", "DIVASNP8"} {
		// Re-stamp the file as the old version under a checksum that
		// matches, so the magic is the only thing left to refuse it.
		old := stamp(append([]byte(magic), data[8:len(data)-8]...))
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, got, err := st.Load(handle); err == nil || got != nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("%s file: snapshot %v, err = %v; want a bad-magic error", magic, got, err)
		}
		entries, err := st.List()
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		if len(entries) != 0 {
			t.Errorf("List = %+v, want the %s file skipped", entries, magic)
		}
	}
	// The same bytes under the current magic load: the magic was the reason.
	if err := os.WriteFile(path, stamp(append([]byte(nil), data[:len(data)-8]...)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(handle, diva.WithConcurrent(true)); err != nil {
		t.Errorf("re-stamped current-format file failed to load: %v", err)
	}
}

// TestLoadEarlierFiles loads two files written before sharded execution was
// removed, committed under testdata/. They were written as DIVASNP3 and
// re-stamped DIVASNP4, then DIVASNP5 (magic and checksum only); their gob
// state sections were re-encoded once into the DIVASNP6 state section, and
// the sequential one's dense node tables and access-tree state once more
// into DIVASNP7's entries (the sharded one holds no strategy state, so only
// its magic and checksum changed), and both state sections once more into
// DIVASNP8's (32 send counters of each sort instead of 256, and no cache
// records, neither machine having a cache bound), and once more into
// DIVASNP9's (no barrier epoch counters), every other section kept byte
// for byte: they are oracle-mode snapshots with no queued inbox
// messages and no remapping. The sequential one
// (its spec pins "shards":1, a 4×4 at4 machine warmed by matmul(16)) loads
// and forks a bitonic query to the trajectory its writer recorded; the
// sharded one (spec "shards":4) is refused by spec validation.
func TestLoadEarlierFiles(t *testing.T) {
	const seqHandle, shardedHandle = "a1a790fc5a44a7bf", "202c151ed633b902"
	dir := t.TempDir()
	for _, h := range []string{seqHandle, shardedHandle} {
		data, err := os.ReadFile(filepath.Join("testdata", h+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, h+".snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := snapstore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	sp, snap, err := st.Load(seqHandle)
	if err != nil {
		t.Fatalf("Load sequential file: %v", err)
	}
	if sp.Shards != 1 {
		t.Errorf("stored spec has shards=%d, want the 1 its writer pinned", sp.Shards)
	}
	f, err := diva.Fork(snap)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	res := mustRun(t, f, diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16, Check: true, Seed: 2}))
	if fp, ev := f.K.Fingerprint(), f.K.Stat.Events; fp != 0xab248516eb1f969e || ev != 7276 || res.ElapsedUS != 101644 || !res.Verified {
		t.Errorf("fork of the stored file: fingerprint %#x, %d events, %v us, verified %v; want 0xab248516eb1f969e, 7276, 101644, true",
			fp, ev, res.ElapsedUS, res.Verified)
	}

	// Saving the loaded snapshot writes the stored file back byte for
	// byte: the tables were decoded into full tables (the 21-node tree's
	// tables are too small to be sparse) and written as entries again.
	stored, err := os.ReadFile(filepath.Join(dir, seqHandle+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	resaveDir := t.TempDir()
	st2, err := snapstore.Open(resaveDir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := st2.Save(seqHandle, sp, snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	resaved, err := os.ReadFile(filepath.Join(resaveDir, seqHandle+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	a, b := fileSections(t, stored), fileSections(t, resaved)
	for i, part := range []string{"spec", "tables", "bitmaps", "state"} {
		if !bytes.Equal(stored[a[i+1]:a[i+2]], resaved[b[i+1]:b[i+2]]) {
			t.Errorf("re-saving the stored file changed its %s section", part)
		}
	}

	_, got, err := st.Load(shardedHandle)
	var ve *spec.ValidationError
	if got != nil || !errors.As(err, &ve) || len(ve.Fields) != 1 || ve.Fields[0].Field != "shards" ||
		!strings.Contains(ve.Fields[0].Msg, "sharded execution was removed") {
		t.Errorf("sharded file: snapshot %v, err = %v; want the shards field error", got, err)
	}
}

// TestLoadRejectsMisfitNodeWords: every entry of the node table section
// must fit its tree node — a pointer names the node itself, its parent (the
// root has none) or a child the node has, and an edge bit a neighbor it
// has. Each case rewrites the committed 4×4 at4 file and re-seals it under
// a matching checksum, so the table decoder is the only thing left to
// refuse it.
func TestLoadRejectsMisfitNodeWords(t *testing.T) {
	const handle = "a1a790fc5a44a7bf"
	data, err := os.ReadFile(filepath.Join("testdata", handle+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, handle+".snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := snapstore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	_, snap, err := st.Load(handle)
	if err != nil {
		t.Fatalf("Load pristine file: %v", err)
	}
	m, err := diva.Fork(snap)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	nodes := m.Tree.Nodes
	off := fileSections(t, data)
	const toward, arrow = 32, 56
	for _, tc := range []struct {
		name    string
		rewrite func(id int, w uint64) (uint64, bool)
	}{
		{"leaf points at child 3", func(id int, w uint64) (uint64, bool) {
			if !nodes[id].Leaf() {
				return w, false
			}
			return w&^(0xff<<toward) | 3<<toward, true
		}},
		{"root arrow leads up", func(id int, w uint64) (uint64, bool) {
			if nodes[id].Parent != -1 {
				return w, false
			}
			return w | 0xff<<arrow, true
		}},
		{"leaf has a child edge", func(id int, w uint64) (uint64, bool) {
			if !nodes[id].Leaf() {
				return w, false
			}
			return w | 1<<1, true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), data[:len(data)-8]...)
			tables := bad[off[2]:off[3]]
			rewritten := 0
			for i := 0; i < len(tables); i += 10 { // a uint16 node id, then its word
				id := int(binary.LittleEndian.Uint16(tables[i:]))
				if w, ok := tc.rewrite(id, binary.LittleEndian.Uint64(tables[i+2:])); ok {
					binary.LittleEndian.PutUint64(tables[i+2:], w)
					rewritten++
				}
			}
			if rewritten == 0 {
				t.Fatal("no word rewritten")
			}
			if err := os.WriteFile(path, stamp(bad), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, got, err := st.Load(handle); err == nil || got != nil || !strings.Contains(err.Error(), "malformed") {
				t.Errorf("%d words rewritten: loaded %v, err = %v; want a malformed node table entry", rewritten, got != nil, err)
			}
		})
	}
}

// TestSaveDeterministic: the same snapshot always produces the same bytes,
// and a snapshot read back from a file saves to that very file again —
// across strategies, with bounded caches, pointer-heavy payloads and a
// reactive capture. (Remapped positions are not reachable from a spec;
// internal/core/accesstree pins them.)
func TestSaveDeterministic(t *testing.T) {
	matmul := spec.Workload{Name: "matmul", Block: 64, Seed: 1}
	bounded := machineSpec("mesh", "at4", 4, 4)
	bounded.CacheCapacity = 2048
	reactive := machineSpec("mesh", "at4", 4, 4)
	reactive.Fault = &spec.Fault{Events: []spec.FaultEvent{
		{AtUS: 200, Kind: "node-down", A: 5},
		{AtUS: 30000, Kind: "node-up", A: 5},
	}}
	reactive.Recovery = spec.RecoveryReactive
	reactive.AckTimeoutUS, reactive.MaxRetries, reactive.Backoff = 500, 3, 2
	barnesHut := machineSpec("mesh", "at4", 4, 4)
	barnesHut.Workload = spec.Workload{Name: "barneshut", Bodies: 32, Steps: 2, MeasureFrom: 1}
	handOpt := spec.Spec{Topology: "mesh", Rows: 4, Cols: 4, Tree: "2-ary", Seed: 1999,
		Workload: spec.Workload{Name: "stencil", Iters: 3, Halo: 32, Compute: true, Check: true, Seed: 7}}
	for name, sp := range map[string]spec.Spec{
		"at4":       machineSpec("mesh", "at4", 8, 8),
		"fixedhome": machineSpec("torus", "fixedhome", 8, 8),
		"bounded":   bounded,
		"reactive":  reactive,
		"barneshut": barnesHut,
		"handopt":   handOpt,
	} {
		if sp.Workload.Name == "" {
			sp.Workload = matmul
		}
		t.Run(name, func(t *testing.T) {
			snap := warmSnapshot(t, sp)
			dir := t.TempDir()
			st, err := snapstore.Open(dir)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			handle := snapstore.Handle(sp)
			path := filepath.Join(dir, handle+".snap")
			save := func(sp spec.Spec, snap *diva.Snapshot) []byte {
				t.Helper()
				if err := st.Save(handle, sp, snap); err != nil {
					t.Fatalf("Save: %v", err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			first := save(sp, snap)
			if again := save(sp, snap); !bytes.Equal(again, first) {
				t.Error("saving the same snapshot twice produced different files")
			}
			spLoaded, loaded, err := st.Load(handle, diva.WithConcurrent(true))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if resaved := save(spLoaded, loaded); !bytes.Equal(resaved, first) {
				off := fileSections(t, first)
				t.Errorf("Save → Load → Save changed the file: %d → %d bytes (sections at %v)", len(first), len(resaved), off)
			}
		})
	}
}

// TestLoadConcurrent: Loads share recycled file buffers, so concurrent
// restores of different files must not see each other's bytes — every
// loaded snapshot forks exactly like the live one it was saved from. (Run
// under -race in CI.)
func TestLoadConcurrent(t *testing.T) {
	st, err := snapstore.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	query := diva.Bitonic(diva.BitonicConfig{KeysPerProc: 16, Check: true, Seed: 2})
	var handles []string
	var want []traj
	for _, sp := range []spec.Spec{machineSpec("mesh", "at4", 4, 4), machineSpec("torus", "fixedhome", 4, 4)} {
		sp.Workload = spec.Workload{Name: "matmul", Block: 64, Seed: 1}
		snap := warmSnapshot(t, sp)
		handle := snapstore.Handle(sp)
		if err := st.Save(handle, sp, snap); err != nil {
			t.Fatalf("Save: %v", err)
		}
		handles = append(handles, handle)
		want = append(want, forkQuery(t, snap, query))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (g + i) % len(handles)
				_, snap, err := st.Load(handles[k], diva.WithConcurrent(true))
				if err != nil {
					t.Errorf("Load: %v", err)
					return
				}
				f, err := diva.Fork(snap, diva.ForkConcurrent(true))
				if err != nil {
					t.Errorf("Fork: %v", err)
					return
				}
				res, err := query.Run(f, nil)
				if err != nil {
					t.Errorf("%s: %v", query.Name(), err)
					return
				}
				if got := capture(t, f, res); got != want[k] {
					t.Errorf("concurrent restore of %s diverged:\n disk: %+v\n live: %+v", handles[k], got, want[k])
				}
			}
		}(g)
	}
	wg.Wait()
}
