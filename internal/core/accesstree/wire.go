package accesstree

import (
	"encoding/gob"

	"diva/internal/core"
	"diva/internal/xrand"
)

// Wire form of the access-tree strategy snapshot (core.WireSnapshotter /
// core.StratWire), mirroring snapState with exported, gob-encodable
// fields.

// Wire is the serializable access-tree strategy state.
type Wire struct {
	RNG    xrand.State
	Remaps int
	Vars   []VarWire // indexed by VarID; Present=false for freed variables
}

// VarWire is one variable's tree state. Values, not pointers: gob rejects
// nil elements in pointer slices, and freed variables leave holes.
type VarWire struct {
	Present bool
	RootPos int
	Seed    uint64
	Creator int
	// Nodes is the dense node table, one packed word per tree node (see
	// packNode).
	Nodes       []uint64
	TokenAt     int // leaf the free lock token rests at
	Accesses    []uint32
	PosOverride map[int]int
	Remaps      int
}

// packNode packs a quiescent node (no acknowledgment outstanding) into one
// word: edges in the low half, then toward, arrow and the member flag.
func packNode(n nodeState) uint64 {
	w := uint64(n.edges) | uint64(uint8(n.toward))<<32 | uint64(uint8(n.arrow))<<40
	if n.member {
		w |= 1 << 48
	}
	return w
}

func unpackNode(w uint64) nodeState {
	return nodeState{
		edges:  uint32(w),
		toward: int8(w >> 32),
		arrow:  int8(w >> 40),
		member: w>>48&1 == 1,
	}
}

func init() {
	gob.RegisterName("diva/accesstree.Wire", &Wire{})
}

// Wire implements core.WireSnapshotter.
func (st *snapState) Wire() core.StratWire {
	w := &Wire{RNG: st.rng, Remaps: st.remaps, Vars: make([]VarWire, len(st.vars))}
	for i := range st.vars {
		vsn := &st.vars[i]
		if !vsn.present {
			continue
		}
		vw := VarWire{
			Present:     true,
			RootPos:     vsn.rootPos,
			Seed:        vsn.seed,
			Creator:     vsn.creator,
			Nodes:       make([]uint64, len(vsn.nodes)),
			TokenAt:     vsn.tokenAt,
			Accesses:    vsn.accesses,
			PosOverride: vsn.posOverride,
			Remaps:      vsn.remaps,
		}
		for j, n := range vsn.nodes {
			vw.Nodes[j] = packNode(n)
		}
		w.Vars[i] = vw
	}
	return w
}

// Blob implements core.StratWire.
func (w *Wire) Blob() interface{} {
	st := &snapState{rng: w.RNG, remaps: w.Remaps, vars: make([]varSnapState, len(w.Vars))}
	for i := range w.Vars {
		vw := &w.Vars[i]
		if !vw.Present {
			continue
		}
		vsn := varSnapState{
			present:     true,
			rootPos:     vw.RootPos,
			seed:        vw.Seed,
			creator:     vw.Creator,
			nodes:       make([]nodeState, len(vw.Nodes)),
			tokenAt:     vw.TokenAt,
			accesses:    vw.Accesses,
			posOverride: vw.PosOverride,
			remaps:      vw.Remaps,
		}
		for j, n := range vw.Nodes {
			vsn.nodes[j] = unpackNode(n)
		}
		st.vars[i] = vsn
	}
	return st
}
