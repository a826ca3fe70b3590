package accesstree

import (
	"bytes"
	"strings"
	"testing"

	"diva/internal/core"
	"diva/internal/decomp"
)

func remapMachine(threshold int) *core.Machine {
	return core.MustNewMachine(core.Config{
		Rows: 4, Cols: 4, Seed: 77, Tree: decomp.Ary2,
		Strategy: FactoryOpts(Options{RandomEmbedding: true, RemapThreshold: threshold}),
	})
}

// movedNodes counts the variable's remapped tree nodes.
func movedNodes(vs *varState) int {
	n := 0
	for _, moved := range vs.remap.moved {
		if moved != 0 {
			n++
		}
	}
	return n
}

func TestRemapRequiresRandomEmbedding(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RemapThreshold without RandomEmbedding accepted")
		}
	}()
	FactoryOpts(Options{RemapThreshold: 5})
}

// TestRemapTriggersAndStaysCorrect: heavy traffic on one variable must
// trigger migrations, and the protocol must stay correct afterwards.
func TestRemapTriggersAndStaysCorrect(t *testing.T) {
	m := remapMachine(8)
	v := m.AllocAt(0, 64, 0)
	const rounds = 12
	if err := m.Run(func(p *core.Proc) {
		for r := 0; r < rounds; r++ {
			if got := p.Read(v); got == nil {
				t.Error("nil read")
			}
			p.Barrier()
			if p.ID == (r*5)%m.P() {
				p.Write(v, r+1)
			}
			p.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := TotalRemaps(m.Strat); got == 0 {
		t.Fatal("no remapping happened despite heavy traffic")
	}
	checkInvariants(t, m, m.Var(v), rounds)
}

// TestRemapOffByDefault: the paper's configuration performs no migrations.
func TestRemapOffByDefault(t *testing.T) {
	m := core.MustNewMachine(core.Config{
		Rows: 4, Cols: 4, Seed: 77, Tree: decomp.Ary2,
		Strategy: Factory(),
	})
	v := m.AllocAt(0, 64, 0)
	if err := m.Run(func(p *core.Proc) {
		for r := 0; r < 6; r++ {
			p.Read(v)
			p.Barrier()
			if p.ID == r {
				p.Write(v, r)
			}
			p.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := TotalRemaps(m.Strat); got != 0 {
		t.Fatalf("%d remaps with remapping disabled", got)
	}
}

// TestRemapMovesHotNode: after remapping, positions actually change (the
// moved table is consulted).
func TestRemapMovesHotNode(t *testing.T) {
	m := remapMachine(4)
	v := m.AllocAt(0, 64, 0)
	if err := m.Run(func(p *core.Proc) {
		for r := 0; r < 10; r++ {
			p.Read(v)
			p.Barrier()
			if p.ID == 15 {
				p.Write(v, r)
			}
			p.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	vs := vstate(m.Var(v))
	if movedNodes(vs) == 0 {
		t.Fatal("no moved positions recorded")
	}
	s := m.Strat.(*strategy)
	for id, moved := range vs.remap.moved {
		if pos := int(moved) - 1; moved != 0 && (!s.t.Nodes[id].Region.ContainsProc(pos) || s.posOf(vs, id) != pos) {
			t.Fatalf("remapped node %d at processor %d outside its region %+v",
				id, pos, s.t.Nodes[id].Region)
		}
	}
}

// TestRemapChargesMessages: migrations are not free.
func TestRemapChargesMessages(t *testing.T) {
	run := func(threshold int) uint64 {
		m := remapMachine(threshold)
		v := m.AllocAt(0, 64, 0)
		if err := m.Run(func(p *core.Proc) {
			for r := 0; r < 10; r++ {
				p.Read(v)
				p.Barrier()
				if p.ID == 0 {
					p.Write(v, r)
				}
				p.Barrier()
			}
		}); err != nil {
			t.Fatal(err)
		}
		msgs, _ := m.Net.SendStats()
		return msgs[kindRemapMove] + msgs[kindRemapNote]
	}
	if with := run(4); with == 0 {
		t.Fatal("remapping sent no messages")
	}
	if without := run(0); without != 0 {
		t.Fatal("messages sent with remapping disabled")
	}
}

// TestRemapLeavesLeavesPinned: processor leaves can never move.
func TestRemapLeavesPinned(t *testing.T) {
	m := remapMachine(2)
	v := m.AllocAt(0, 64, 0)
	if err := m.Run(func(p *core.Proc) {
		for r := 0; r < 8; r++ {
			p.Read(v)
			p.Barrier()
			if p.ID == 3 {
				p.Write(v, r)
			}
			p.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	vs := vstate(m.Var(v))
	s := m.Strat.(*strategy)
	for id, moved := range vs.remap.moved {
		if moved != 0 && s.t.Nodes[id].Leaf() {
			t.Fatalf("leaf node %d was remapped", id)
		}
	}
}

// TestRemapSnapshotSerialization: the moved positions of several nodes
// reach a snapshot file — the same capture always encodes to the same
// bytes, a snapshot decoded from them encodes to those bytes again, and a
// fork of the decoded snapshot continues exactly like a fork of the live
// one.
func TestRemapSnapshotSerialization(t *testing.T) {
	m := remapMachine(2)
	vars := []core.VarID{m.AllocAt(0, 64, 0), m.AllocAt(5, 64, 0), m.AllocAt(10, 64, 0)}
	traffic := func(p *core.Proc) {
		for r := 0; r < 12; r++ {
			for i, v := range vars {
				p.Read(v)
				p.Barrier()
				if p.ID == (r*5+i)%16 {
					p.Write(v, r)
				}
				p.Barrier()
			}
		}
	}
	if err := m.Run(traffic); err != nil {
		t.Fatal(err)
	}
	for _, v := range vars {
		if n := movedNodes(vstate(m.Var(v))); n < 2 {
			t.Fatalf("variable %d has %d moved nodes; the test needs several", v, n)
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	encode := func(snap *core.Snapshot) (tables, locals, state []byte) {
		t.Helper()
		w, err := snap.Wire()
		if err != nil {
			t.Fatal(err)
		}
		state, err = w.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		return w.Tables, w.Locals, state
	}
	tables, locals, state := encode(snap)
	for i := 0; i < 8; i++ {
		if _, _, again := encode(snap); !bytes.Equal(again, state) {
			t.Fatal("the same snapshot encoded to different bytes")
		}
	}
	loaded, err := core.SnapshotFromWire(remapMachine(2), tables, locals, state)
	if err != nil {
		t.Fatalf("SnapshotFromWire: %v", err)
	}
	if t2, l2, s2 := encode(loaded); !bytes.Equal(t2, tables) || !bytes.Equal(l2, locals) || !bytes.Equal(s2, state) {
		t.Error("a decoded snapshot encoded to different bytes")
	}
	var prints [2]uint64
	for i, s := range []*core.Snapshot{snap, loaded} {
		f, err := s.Fork(core.ForkOptions{})
		if err != nil {
			t.Fatalf("Fork: %v", err)
		}
		if err := f.Run(traffic); err != nil {
			t.Fatal(err)
		}
		prints[i] = f.K.Fingerprint()
	}
	if prints[0] != prints[1] {
		t.Errorf("fork of the decoded snapshot diverged: fingerprint %#x, live %#x", prints[1], prints[0])
	}
}

// TestRemapCheckRefusesMisfitMoved: a stored moved table must have a slot
// per tree node, each 0 or 1 + a processor of the machine.
func TestRemapCheckRefusesMisfitMoved(t *testing.T) {
	m := remapMachine(2)
	v := m.AllocAt(0, 64, 0)
	if err := m.Run(func(p *core.Proc) {
		for r := 0; r < 6; r++ {
			p.Read(v)
			p.Barrier()
			if p.ID == 3 {
				p.Write(v, r)
			}
			p.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	s := m.Strat.(*strategy)
	vars := []*core.Variable{m.Var(v)}
	for _, tc := range []struct {
		name string
		bend func(moved []int32) []int32
		want string
	}{
		{"as captured", func(moved []int32) []int32 { return moved }, ""},
		{"a slot short", func(moved []int32) []int32 { return moved[1:] }, "positions"},
		{"past the last processor", func(moved []int32) []int32 { moved[1] = int32(m.P()) + 1; return moved }, "to processor 16"},
		{"negative", func(moved []int32) []int32 { moved[1] = -1; return moved }, "to processor -2"},
	} {
		state, err := s.SnapshotState(vars)
		if err != nil {
			t.Fatal(err)
		}
		st := state.(*State)
		st.Moved = tc.bend(st.Moved)
		err = s.check(st, []core.VarState{{Present: true}})
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: check = %v, want %q", tc.name, err, tc.want)
		}
	}
}
