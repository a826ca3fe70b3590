package core_test

import (
	"bytes"
	"strings"
	"testing"

	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/decomp"
)

// TestSnapshotFromWireRejectsNegativeSize: a stored variable of negative
// size is refused at load. Accepted, the fork's first remote read of it
// would schedule its data message before the present.
func TestSnapshotFromWireRejectsNegativeSize(t *testing.T) {
	cfg := core.Config{Rows: 4, Cols: 4, Seed: 1, Tree: decomp.Ary4, Strategy: accesstree.Factory()}
	m := core.MustNewMachine(cfg)
	v := m.AllocAt(0, 64, 1)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	load := func() error {
		w, err := snap.Wire()
		if err != nil {
			t.Fatal(err)
		}
		var state bytes.Buffer
		if err := w.WriteState(&state); err != nil {
			t.Fatal(err)
		}
		_, err = core.SnapshotFromWire(core.MustNewMachine(cfg), w.Tables, w.Locals, state.Bytes())
		return err
	}
	if err := load(); err != nil {
		t.Fatalf("the snapshot as captured: %v", err)
	}
	core.SetVarSize(snap, v, -1<<40)
	if err := load(); err == nil || !strings.Contains(err.Error(), "size -1099511627776") {
		t.Fatalf("SnapshotFromWire = %v, want a negative-size error", err)
	}
}
