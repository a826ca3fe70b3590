package core_test

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/core/fixedhome"
	"diva/internal/decomp"
	"diva/internal/mesh"
	"diva/internal/sim"
	"diva/internal/wire"
	"diva/internal/xrand"
)

// notCarried names the fields of captured types that the state section
// does not carry, each with the reason. Every other field, exported or
// not, must survive its type's codec.
var notCarried = map[string]string{
	"core.snapState.Strat":       "the strategy's own bytes end the section; its state is a row of its own",
	"mesh.Msg.pooled":            "a queued message is never pooled",
	"accesstree.State.ids":       "the table section carries the node tables",
	"accesstree.State.nodes":     "the table section carries the node tables",
	"accesstree.State.treeNodes": "the machine's tree size, checked against the table section",
	"accesstree.VarState.at":     "derived from the table section",
}

// fill sets every field v holds, exported or not and through slices,
// arrays and pointers, to a distinct non-zero value drawn from next; an
// interface gets an int, which has a value codec. A kind it cannot fill
// fails the test, so a new field of an unforeseen kind is looked at.
func fill(t *testing.T, v reflect.Value, next *uint64) {
	t.Helper()
	*next++
	x := *next
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(x%uint64(1<<(8*v.Type().Size()-1)-1)) + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(x%uint64(1<<(8*v.Type().Size()-1)-1) + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(x) + 0.5)
	case reflect.Array:
		for i := range v.Len() {
			fill(t, v.Index(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range v.Len() {
			fill(t, v.Index(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), next)
	case reflect.Interface:
		v.Set(reflect.ValueOf(int(x)))
	case reflect.Struct:
		for i := range v.NumField() {
			if _, ok := notCarried[v.Type().String()+"."+v.Type().Field(i).Name]; ok {
				continue
			}
			f := v.Field(i)
			fill(t, reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem(), next)
		}
	default:
		t.Fatalf("cannot fill a %s", v.Type())
	}
}

// TestCodecsCarryEveryField fills each captured type, encodes it, decodes
// the bytes and requires a deeply equal value: a field added to a captured
// type without a line in its encoder and decoder fails here.
func TestCodecsCarryEveryField(t *testing.T) {
	for _, c := range []struct {
		name      string
		v         any // pointer to the zero value
		roundTrip func(v any) (any, error)
	}{
		{"sim.KernelState", new(sim.KernelState), func(v any) (any, error) {
			r := wire.NewReader(v.(*sim.KernelState).Append(nil))
			got := sim.ReadKernelState(r)
			return &got, r.Finish()
		}},
		{"xrand.State", new(xrand.State), func(v any) (any, error) {
			r := wire.NewReader(v.(*xrand.State).Append(nil))
			got := xrand.ReadState(r)
			return &got, r.Finish()
		}},
		{"mesh.NetworkState", new(mesh.NetworkState), func(v any) (any, error) {
			b, err := v.(*mesh.NetworkState).Append(nil)
			if err != nil {
				return nil, err
			}
			r := wire.NewReader(b)
			got := mesh.ReadNetworkState(r)
			return got, r.Finish()
		}},
		{"core.snapState", new(core.SnapState), func(v any) (any, error) {
			b, err := core.AppendSnapState(v.(*core.SnapState))
			if err != nil {
				return nil, err
			}
			return core.ReadSnapState(b)
		}},
		{"accesstree.State", new(accesstree.State), func(v any) (any, error) {
			st := v.(*accesstree.State)
			r := wire.NewReader(st.AppendState(nil))
			got := accesstree.ReadState(r, len(st.Vars))
			return got, r.Finish()
		}},
		{"fixedhome.State", new(fixedhome.State), func(v any) (any, error) {
			r := wire.NewReader(v.(*fixedhome.State).AppendState(nil))
			got := fixedhome.ReadState(r)
			return got, r.Finish()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			next := uint64(0)
			fill(t, reflect.ValueOf(c.v).Elem(), &next)
			got, err := c.roundTrip(c.v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.v) {
				t.Errorf("round trip changed the value:\n got %+v\nwant %+v", got, c.v)
			}
		})
	}
}

// FuzzStateSection feeds arbitrary bytes to SnapshotFromWire as the state
// section of two fixed machines — a 4×4 at4 machine and a reactive 4×4
// fixedhome one, whose section carries the transport's channel table —
// past the spec and checksum layers a snapshot file puts before it.
// Whatever the bytes, SnapshotFromWire returns without panicking and
// allocates at most a constant multiple of their length (plus the fixed
// table and bitmap sections it decodes beside them); a snapshot it accepts
// forks, and the fork makes every variable it holds.
func FuzzStateSection(f *testing.F) {
	type target struct {
		cfg            core.Config
		tables, locals []byte
	}
	var targets []target
	for _, cfg := range []core.Config{
		{Rows: 4, Cols: 4, Seed: 1, Tree: decomp.Ary4, Strategy: accesstree.Factory(), CacheCapacity: 256},
		{Rows: 4, Cols: 4, Seed: 9001, Tree: decomp.Ary4, Strategy: fixedhome.Factory(),
			Faults: reactiveFaults(), Recovery: core.RecoveryReactive},
	} {
		m := core.MustNewMachine(cfg)
		vars := []core.VarID{m.AllocAt(0, 64, 0), m.AllocAt(5, 64, "five"), m.AllocAt(9, 16, nil), m.AllocAt(3, 32, 7)}
		err := m.Run(func(p *core.Proc) {
			for r, v := range vars {
				if p.ID == r*3 {
					p.Write(v, p.ID+r)
				}
				p.Barrier()
				p.Read(v)
			}
		})
		if err != nil {
			f.Fatal(err)
		}
		m.Free(vars[2])
		snap, err := m.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		w, err := snap.Wire()
		if err != nil {
			f.Fatal(err)
		}
		state, err := w.AppendState(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(len(targets)), state)
		f.Add(uint8(len(targets)), state[:len(state)/2])
		targets = append(targets, target{cfg, w.Tables, w.Locals})
	}
	f.Fuzz(func(t *testing.T, which uint8, state []byte) {
		tg := targets[int(which)%len(targets)]
		m := core.MustNewMachine(tg.cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := core.SnapshotFromWire(m, tg.tables, tg.locals, state)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(state)+8*(len(tg.tables)+len(tg.locals))+16<<10); got > limit {
			t.Errorf("%d bytes allocated for a %d-byte state section (limit %d)", got, len(state), limit)
		}
		if err == nil {
			fork, err := snap.Fork(core.ForkOptions{})
			if err != nil {
				t.Errorf("SnapshotFromWire accepted a state section that does not fork: %v", err)
			} else {
				core.BorrowAll(fork) // a fork makes a variable's record at its first access
			}
		}
	})
}
