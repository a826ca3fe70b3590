package fixedhome

import (
	"encoding/gob"

	"diva/internal/core"
	"diva/internal/xrand"
)

// Wire form of the fixed-home strategy snapshot (core.WireSnapshotter /
// core.StratWire), mirroring snapState with exported, gob-encodable
// fields.

// Wire is the serializable fixed-home strategy state.
type Wire struct {
	RNG  xrand.State
	Vars []VarWire // indexed by VarID; Present=false for freed variables
}

// VarWire is one variable's directory record (the holder set travels as
// the variable's local-copy bitmap in core.VarWire). Values, not pointers:
// gob rejects nil elements in pointer slices, and freed variables leave
// holes.
type VarWire struct {
	Present bool
	Home    int
	Owner   int
}

func init() {
	gob.RegisterName("diva/fixedhome.Wire", &Wire{})
}

// Wire implements core.WireSnapshotter.
func (st *snapState) Wire() core.StratWire {
	w := &Wire{RNG: st.rng, Vars: make([]VarWire, len(st.vars))}
	for i, vsn := range st.vars {
		w.Vars[i] = VarWire{Present: vsn.present, Home: vsn.home, Owner: vsn.owner}
	}
	return w
}

// Blob implements core.StratWire.
func (w *Wire) Blob() interface{} {
	st := &snapState{rng: w.RNG, vars: make([]varSnapState, len(w.Vars))}
	for i, vw := range w.Vars {
		st.vars[i] = varSnapState{present: vw.Present, home: vw.Home, owner: vw.Owner}
	}
	return st
}
