package core_test

import (
	"bytes"
	"strings"
	"testing"

	"diva/internal/core"
)

// isLive reports whether m has variable id. m must not be a fork: a fork
// makes a variable it borrows when Var reaches it.
func isLive(m *core.Machine, id core.VarID) (live bool) {
	defer func() {
		if recover() != nil {
			live = false
		}
	}()
	m.Var(id)
	return true
}

// mustBeFreed fails unless Var panics on id as an invalid variable.
func mustBeFreed(t *testing.T, m *core.Machine, id core.VarID) {
	t.Helper()
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "invalid variable") {
			t.Errorf("Var(%d) = %v, want a panic on an invalid variable", id, r)
		}
	}()
	m.Var(id)
}

// sections snapshots m and returns the snapshot and its encoded sections
// back to back: tables, bitmaps, state.
func sections(t *testing.T, m *core.Machine) (*core.Snapshot, []byte) {
	t.Helper()
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w, err := snap.Wire()
	if err != nil {
		t.Fatal(err)
	}
	b := append(append([]byte(nil), w.Tables...), w.Locals...)
	if b, err = w.AppendState(b); err != nil {
		t.Fatal(err)
	}
	return snap, b
}

// TestForkFreeLent frees, in a fork, warmed variables the fork never
// touched. The ids are dead from then on: Var panics on them — the fork
// never borrows them again — and a snapshot of the fork, which makes every
// other variable, encodes byte for byte what a snapshot of the source
// machine that freed the same variables does, and forks without them.
func TestForkFreeLent(t *testing.T) {
	src := warmedMachine(t)
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var ids []core.VarID
	for id := core.VarID(0); int(id) < 1<<20 && len(ids) < 3; id += 97 {
		if isLive(src, id) {
			ids = append(ids, id)
		}
	}
	if len(ids) < 3 {
		t.Fatalf("found only %d live variables", len(ids))
	}
	f, err := snap.Fork(core.ForkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		f.Free(id)
		src.Free(id)
	}
	for _, id := range append(ids, -1, 1<<30) {
		mustBeFreed(t, f, id)
	}
	_, want := sections(t, src)
	fsnap, got := sections(t, f)
	if !bytes.Equal(got, want) {
		t.Errorf("a snapshot of the fork encodes %d bytes that differ from the source's %d", len(got), len(want))
	}
	ff, err := fsnap.Fork(core.ForkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		mustBeFreed(t, ff, id)
	}
}
