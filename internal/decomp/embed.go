package decomp

import (
	"diva/internal/xrand"
)

// This file implements the embeddings of access trees into the network.
// Positions are processor ids; the region types translate the paper's
// coordinate rules into id arithmetic (bit-identically for the mesh).
//
// The theoretical strategy maps every access tree node uniformly at random
// into its region. The paper's practical improvement ("modified
// embedding") instead maps only the root randomly and derives every other
// node from its parent with a modular rule, which shortens the expected
// distance between neighboring tree nodes: if the parent is mapped to the
// node in row i, column j of its submesh M', then the child is mapped to
// the node in row i mod m1, column j mod m2 of its submesh M (Region.Embed
// generalizes this rule to non-grid regions via decomposition-order
// ranks).

// EmbedChild applies the modular rule: given the processor simulating the
// parent of node childID, it returns the processor simulating childID
// within its own region.
func (t *Tree) EmbedChild(parentProc int, childID int) int {
	c := &t.Nodes[childID]
	return c.Region.Embed(t.Nodes[c.Parent].Region, parentProc)
}

// EmbedAll returns the processor of every tree node under the modular
// embedding with the given root processor, indexed by node id. The tables
// are the bulk of what machines share per tree, hence the narrow element.
func (t *Tree) EmbedAll(rootProc int) []int32 {
	out := make([]int32, len(t.Nodes))
	out[0] = int32(rootProc)
	for id := 1; id < len(t.Nodes); id++ {
		out[id] = int32(t.EmbedChild(int(out[t.Nodes[id].Parent]), id))
	}
	return out
}

// RandomPos returns a processor uniformly at random within the region of
// node id, as a pure function of (seed, id) — the fully random embedding
// of the theoretical analysis, kept for the embedding ablation.
func (t *Tree) RandomPos(seed uint64, id int) int {
	rng := xrand.New(seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
	return t.Nodes[id].Region.Draw(rng)
}

// RandomRoot draws a root processor uniformly from the whole network.
func (t *Tree) RandomRoot(rng *xrand.RNG) int {
	return t.Nodes[0].Region.Draw(rng)
}
