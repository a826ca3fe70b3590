package core_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/decomp"
	"diva/internal/wire"
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
	if err := reload(t, cfg, snap); err != nil {
		t.Fatalf("the snapshot as captured: %v", err)
	}
	core.SetVarSize(snap, v, -1<<30)
	if err := reload(t, cfg, snap); err == nil || !strings.Contains(err.Error(), "size -1073741824") {
		t.Fatalf("SnapshotFromWire = %v, want a negative-size error", err)
	}
}

// TestVarStateIsInt32: a snapshot keeps a variable's size and creator as
// int32. A capture refuses a size past that range, and so does the decoder
// of a stored record, instead of truncating it; the widest that fits
// survives both.
func TestVarStateIsInt32(t *testing.T) {
	cfg := core.Config{Rows: 4, Cols: 4, Seed: 1, Tree: decomp.Ary4, Strategy: accesstree.Factory()}
	m := core.MustNewMachine(cfg)
	m.AllocAt(3, math.MaxInt32, 1)
	if _, err := m.Snapshot(); err != nil {
		t.Fatalf("snapshot of a variable of size MaxInt32: %v", err)
	}
	m.AllocAt(3, math.MaxInt32+1, 1)
	if _, err := m.Snapshot(); err == nil || !strings.Contains(err.Error(), "size 2147483648") {
		t.Errorf("snapshot of a variable of size MaxInt32+1: %v, want a size error", err)
	}
	for _, tc := range []struct {
		size, creator int
		ok            bool
	}{
		{math.MaxInt32, 3, true},
		{math.MaxInt32 + 1, 3, false},
		{64, math.MaxInt32 + 1, false},
		{math.MinInt32 - 1, 3, false},
	} {
		b := wire.AppendInt(wire.AppendInt(wire.AppendBool(nil, true), tc.size), tc.creator)
		v, err := core.ReadVarState(b)
		if tc.ok != (err == nil) || tc.ok && (int(v.Size) != tc.size || int(v.Creator) != tc.creator) {
			t.Errorf("record of size %d, creator %d: %+v, %v", tc.size, tc.creator, v, err)
		}
	}
}

// TestSnapshotFromWireRejectsBadClock: a stored kernel clock that is NaN,
// infinite or negative is refused at load, not run from.
func TestSnapshotFromWireRejectsBadClock(t *testing.T) {
	cfg := core.Config{Rows: 4, Cols: 4, Seed: 1, Tree: decomp.Ary4, Strategy: accesstree.Factory()}
	m := core.MustNewMachine(cfg)
	m.AllocAt(0, 64, 1)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, now := range []float64{math.NaN(), math.Inf(1), -1} {
		core.SetClock(snap, now)
		if err := reload(t, cfg, snap); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("clock reads %v", now)) {
			t.Errorf("clock %v: SnapshotFromWire = %v, want a clock error", now, err)
		}
	}
}

// reload writes snap's wire sections and loads them on a fresh machine.
func reload(t *testing.T, cfg core.Config, snap *core.Snapshot) error {
	t.Helper()
	w, err := snap.Wire()
	if err != nil {
		t.Fatal(err)
	}
	state, err := w.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.SnapshotFromWire(core.MustNewMachine(cfg), w.Tables, w.Locals, state)
	return err
}

// TestAppendStateRefusesUncodedValue: a variable value of a type no
// package registered a codec for fails the state section's encoder with an
// error that names the type, instead of writing a section no reader can
// decode.
func TestAppendStateRefusesUncodedValue(t *testing.T) {
	type uncoded struct{ A, B int }
	cfg := core.Config{Rows: 4, Cols: 4, Seed: 1, Tree: decomp.Ary4, Strategy: accesstree.Factory()}
	m := core.MustNewMachine(cfg)
	m.AllocAt(0, 64, 1)
	m.AllocAt(1, 64, uncoded{1, 2})
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w, err := snap.Wire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendState(nil); err == nil || !strings.Contains(err.Error(), "uncoded") {
		t.Errorf("AppendState = %v, want an error naming the uncoded type", err)
	}
}
