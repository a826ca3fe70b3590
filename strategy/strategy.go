// Package strategy is the public façade over the simulator's data
// management strategies: the access tree strategy of the paper (§2, the
// contribution under evaluation) in its six decomposition-tree variants,
// the fully random embedding of the theoretical analysis, and the fixed
// home baseline. A name-keyed registry makes every variant selectable by
// string — from a config file or a CLI flag — without importing strategy
// packages; the registry entry also carries the decomposition tree the
// paper evaluated the variant with, which diva.New uses as the default.
//
// Applications embedding the simulator can add their own strategies:
// implement the Strategy protocol interface, wrap it in a Factory, and
// Register it under a fresh name.
package strategy

import (
	"fmt"

	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/core/fixedhome"
	"diva/internal/decomp"
	"diva/internal/registry"
)

// The strategy protocol types, re-exported by alias so embedders never
// import diva/internal/... directly.
type (
	// Strategy is the protocol a data management strategy implements: it
	// decides how many copies of each global variable exist, where they
	// are placed, and how consistency is maintained.
	Strategy = core.Strategy
	// Factory constructs a strategy bound to a machine; it is called once
	// during machine construction, after the network and the
	// decomposition tree exist.
	Factory = core.Factory
	// Tree selects a hierarchical decomposition-tree variant (2-ary,
	// 4-ary, ..., 4-16-ary); it doubles as the access tree shape.
	Tree = decomp.Spec
	// AccessTreeOptions tunes the access tree strategy (random embedding,
	// remap threshold) for variants outside the registry, e.g. ablations.
	AccessTreeOptions = accesstree.Options
)

// AccessTree returns a factory for the access tree strategy with explicit
// options. The registry covers the paper's named variants; this constructor
// serves ablations and custom embeddings.
func AccessTree(o AccessTreeOptions) Factory { return accesstree.FactoryOpts(o) }

// FixedHome returns a factory for the fixed home baseline: every variable
// has one immobile master copy at a random home processor.
func FixedHome() Factory { return fixedhome.Factory() }

// Spec is one registry entry: a named, documented strategy together with
// the decomposition tree it is evaluated with.
type Spec struct {
	// Name is the registry key ("at4", "fixedhome", ...), as used by
	// -strategy flags and configuration files.
	Name string
	// Summary is a one-line description for help texts.
	Summary string
	// Tree is the decomposition-tree variant the strategy runs on by
	// default (the one the paper pairs it with); diva.New applies it when
	// no explicit tree option is given.
	Tree Tree
	// Factory constructs the strategy.
	Factory Factory
}

var reg = registry.New[Spec]("strategy")

// Register adds a strategy to the registry. Registration happens at
// program initialization (from an init function, like image format or SQL
// driver registration), so programming errors — an empty name, a nil
// factory, a duplicate — panic rather than returning an error.
func Register(s Spec) {
	if s.Name == "" || s.Factory == nil {
		panic("strategy: Register needs a name and a factory")
	}
	reg.Register(s.Name, s)
}

// Get returns the registered strategy spec for name. The error of an
// unknown name lists the registered alternatives.
func Get(name string) (Spec, error) { return reg.Get(name) }

// MustGet is Get for names known to be registered; it panics on error.
func MustGet(name string) Spec {
	s, err := Get(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Names returns the registered strategy names, sorted.
func Names() []string { return reg.Names() }

func init() {
	Register(Spec{
		Name:    "fixedhome",
		Summary: "fixed home baseline: one immobile master copy per variable",
		Tree:    decomp.Ary4,
		Factory: fixedhome.Factory(),
	})
	// One access tree per paper variant: "at<base>", plus "k<k>" for the
	// terminating ℓ-k-ary trees (at2, at4, at16, at2k4, at4k8, at4k16).
	for _, tree := range decomp.Variants {
		name := fmt.Sprintf("at%d", tree.Base)
		if tree.TermK > 0 {
			name += fmt.Sprintf("k%d", tree.TermK)
		}
		Register(Spec{
			Name:    name,
			Summary: fmt.Sprintf("%s access tree with the paper's modular embedding", tree.Name()),
			Tree:    tree,
			Factory: accesstree.Factory(),
		})
	}
	Register(Spec{
		Name:    "atrandom",
		Summary: "4-ary access tree with the fully random embedding of the theoretical analysis",
		Tree:    decomp.Ary4,
		Factory: accesstree.FactoryOpts(accesstree.Options{RandomEmbedding: true}),
	})
}
