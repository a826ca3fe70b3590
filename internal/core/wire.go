package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"reflect"
)

// The serialized form of a machine snapshot, for on-disk persistence
// (diva/snapstore). A Snapshot pins the machine Config, which holds a
// Topology interface and a Strategy factory function — neither is
// serializable — so the sections carry only the simulated state; the store
// persists the machine's spec document alongside them and rebuilds an
// identically configured machine before reading them back
// (SnapshotFromWire). There is no second representation: the sections are
// encoded from, and decoded into, the very values Fork restores from, and
// those keep the shapes the machine holds — the network's inbox queues back
// to back, its reactive channel table as one list, a remapped variable's
// positions one slot a tree node.

// Sections is the bulk numeric state of a snapshot as the raw
// little-endian words a snapshot file holds; everything irregular follows
// as one gob stream (WriteState).
type Sections struct {
	// Tables is the strategy's bulk table section (StratState.AppendTables;
	// every access-tree node table, in variable order).
	Tables []byte
	// Locals holds the local-copy bitmaps of the live variables, one
	// uint64 per word, in variable order.
	Locals []byte

	snap *Snapshot
}

// Wire converts the snapshot's bulk state to its serialized sections. The
// conversion itself cannot fail; what can — an unregistered payload type —
// surfaces from WriteState.
func (s *Snapshot) Wire() (*Sections, error) {
	w := &Sections{snap: s}
	if s.st.Strat != nil {
		w.Tables = s.st.Strat.AppendTables(nil)
	}
	w.Locals = make([]byte, 8*len(s.locals))
	for i, x := range s.locals {
		binary.LittleEndian.PutUint64(w.Locals[8*i:], x)
	}
	return w, nil
}

// WriteState writes the state section, one gob stream: the snapshot's
// remaining state as one value (kernel, network, barrier, caches,
// per-variable scalars, strategy state), then the variable values
// (encodeValues). It fails when a variable value or a queued message
// payload has a type its package did not register with encoding/gob.
func (w *Sections) WriteState(out io.Writer) error {
	enc := gob.NewEncoder(out)
	if err := enc.Encode(&w.snap.st); err != nil {
		return fmt.Errorf("diva: encode snapshot: %w", err)
	}
	if err := encodeValues(enc, w.snap.data); err != nil {
		return fmt.Errorf("diva: encode snapshot: variable values: %w", err)
	}
	return nil
}

// encodeValues writes the variable values grouped by concrete type: the
// kind of every variable (0: no value; k: the k-th type in order of first
// appearance), then per kind one value behind an interface — which names
// the type through gob's own registry — and all values of the kind, in
// variable order, as one typed slice. A thousand values of three types
// cost three interface round trips instead of a thousand.
func encodeValues(enc *gob.Encoder, data []interface{}) error {
	kinds := make([]int, len(data))
	kindOf := make(map[reflect.Type]int)
	var groups []reflect.Value
	for i, d := range data {
		if d == nil {
			continue
		}
		t := reflect.TypeOf(d)
		k, ok := kindOf[t]
		if !ok {
			groups = append(groups, reflect.MakeSlice(reflect.SliceOf(t), 0, len(data)-i))
			k = len(groups)
			kindOf[t] = k
		}
		kinds[i] = k
		groups[k-1] = reflect.Append(groups[k-1], reflect.ValueOf(d))
	}
	if err := enc.Encode(kinds); err != nil {
		return err
	}
	for _, g := range groups {
		sample := g.Index(0).Interface()
		if err := enc.Encode(&sample); err != nil {
			return err
		}
		if err := enc.EncodeValue(g); err != nil {
			return err
		}
	}
	return nil
}

// decodeValues reads what encodeValues wrote, returning the values by
// variable id.
func decodeValues(dec *gob.Decoder, vars []VarState) ([]interface{}, error) {
	var kinds []int
	if err := dec.Decode(&kinds); err != nil {
		return nil, err
	}
	if len(kinds) != len(vars) {
		return nil, fmt.Errorf("%d value kinds for %d variables", len(kinds), len(vars))
	}
	var count []int // values per kind
	for i, k := range kinds {
		if k < 0 || k > len(count)+1 || (k != 0 && !vars[i].Present) {
			return nil, fmt.Errorf("variable %d has value kind %d", i, k)
		}
		if k > len(count) {
			count = append(count, 0)
		}
		if k > 0 {
			count[k-1]++
		}
	}
	// Values of a pointer type are decoded as one block of pointees (gob
	// flattens pointers, the stream is the same) and handed out by
	// address: one allocation a kind instead of one a value.
	groups := make([]reflect.Value, len(count))
	byAddr := make([]bool, len(count))
	for k := range groups {
		var sample interface{}
		if err := dec.Decode(&sample); err != nil {
			return nil, err
		}
		if sample == nil {
			return nil, fmt.Errorf("value kind %d has no type", k+1)
		}
		t := reflect.TypeOf(sample)
		if byAddr[k] = t.Kind() == reflect.Pointer; byAddr[k] {
			t = t.Elem()
		}
		g := reflect.New(reflect.SliceOf(t))
		if err := dec.DecodeValue(g); err != nil {
			return nil, err
		}
		if groups[k] = g.Elem(); groups[k].Len() != count[k] {
			return nil, fmt.Errorf("value kind %d has %d values, %d variables use it", k+1, groups[k].Len(), count[k])
		}
	}
	data := make([]interface{}, len(vars))
	next := make([]int, len(groups))
	for i, k := range kinds {
		if k == 0 {
			continue
		}
		v := groups[k-1].Index(next[k-1])
		next[k-1]++
		if byAddr[k-1] {
			v = v.Addr()
		}
		data[i] = v.Interface()
	}
	return data, nil
}

// SnapshotFromWire reconstructs a Snapshot from its serialized form: the
// two raw sections and the state section's gob stream. It pins the Config
// and the Plan of m, a machine freshly built from the machine description the snapshot
// was captured under (the store keeps that description alongside the
// sections); m itself is not touched. Everything Fork relies on is
// validated against m here — network and strategy shape,
// barrier width, cache count and keys, bitmap words — so the snapshot
// returned forks without error.
func SnapshotFromWire(m *Machine, tables, locals, state []byte) (*Snapshot, error) {
	s := &Snapshot{cfg: m.Cfg, plan: m.Plan}
	st := &s.st
	dec := gob.NewDecoder(bytes.NewReader(state))
	if err := dec.Decode(st); err != nil {
		return nil, fmt.Errorf("diva: decode snapshot: %w", err)
	}
	if now := st.Kern.Now; !(now >= 0 && now <= math.MaxFloat64) {
		return nil, fmt.Errorf("diva: stored kernel clock reads %v", now)
	}
	if st.Net == nil {
		return nil, fmt.Errorf("diva: stored snapshot has no network state")
	}
	if err := m.Net.CheckState(st.Net); err != nil {
		return nil, err
	}
	if len(st.Barrier.Epoch) != len(m.bar.epoch) {
		return nil, fmt.Errorf("diva: stored barrier has %d epochs, machine has %d", len(st.Barrier.Epoch), len(m.bar.epoch))
	}
	if len(st.Caches) != len(m.caches) {
		return nil, fmt.Errorf("diva: stored snapshot has %d caches, machine has %d", len(st.Caches), len(m.caches))
	}
	if (st.Strat != nil) != (m.Strat != nil) {
		return nil, fmt.Errorf("diva: stored snapshot and machine disagree on having a strategy")
	}
	for i := range st.Caches {
		for _, key := range st.Caches[i].Keys {
			if st.Strat == nil {
				return nil, fmt.Errorf("diva: stored snapshot has cache keys but no strategy state")
			}
			if int(key.Var) < 0 || int(key.Var) >= len(st.Vars) || !st.Vars[key.Var].Present {
				return nil, fmt.Errorf("diva: stored cache entry for unknown variable %d", key.Var)
			}
		}
	}

	// The bitmap is the fixed home strategy's copy directory: a bit past
	// the last processor would address a node that does not exist.
	words, live := m.localWords(), 0
	for i := range st.Vars {
		if !st.Vars[i].Present {
			continue
		}
		if st.Vars[i].Size < 0 {
			return nil, fmt.Errorf("diva: stored variable %d has size %d", i, st.Vars[i].Size)
		}
		live++
	}
	if len(locals) != 8*words*live {
		return nil, fmt.Errorf("diva: stored bitmap section has %d bytes, %d variables of %d words need %d", len(locals), live, words, 8*words*live)
	}
	s.locals = make([]uint64, words*live)
	for i := range s.locals {
		s.locals[i] = binary.LittleEndian.Uint64(locals[8*i:])
	}
	if tail := uint(m.P()) & 63; tail != 0 {
		for i := words - 1; i < len(s.locals); i += words {
			if s.locals[i]>>tail != 0 {
				return nil, fmt.Errorf("diva: stored snapshot marks a copy beyond processor %d", m.P()-1)
			}
		}
	}
	if st.Strat != nil {
		forker, ok := m.Strat.(Forker)
		if !ok {
			return nil, fmt.Errorf("diva: strategy %q does not support snapshot/fork", m.Strat.Name())
		}
		if err := forker.LoadState(st.Strat, tables, st.Vars); err != nil {
			return nil, err
		}
	} else if len(tables) != 0 {
		return nil, fmt.Errorf("diva: stored snapshot has strategy tables but no strategy state")
	}
	var err error
	if s.data, err = decodeValues(dec, st.Vars); err != nil {
		return nil, fmt.Errorf("diva: decode snapshot: variable values: %w", err)
	}
	return s, nil
}
