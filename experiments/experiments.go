// Package experiments is the public façade over the figure harness that
// regenerates the paper's evaluation (§3): the matrix multiplication and
// bitonic sorting ratio studies, the Barnes-Hut curves and scaling study,
// the illustrative figures, the ablations of the implementation's design
// decisions (D1 modular vs random access tree embedding, D3 remapping
// omitted, access tree arity, bounded memory), and the cross-topology,
// fault and recovery sweeps. Embedders drive it exactly like
// cmd/experiments does:
//
//	r := experiments.New(os.Stdout, true /* quick */, 1999)
//	r.Workers = 4
//	err := r.RunAll()
package experiments

import (
	"io"

	iexp "diva/internal/experiments"
)

// Runner executes figures: Run one by name, RunFigures a subset, RunAll
// everything. Quick mode shrinks meshes and inputs so the full suite
// completes in seconds; Workers bounds the simulations run at once, with
// byte-identical output for any value.
type Runner = iexp.Runner

// New returns a runner writing figures to w.
func New(w io.Writer, quick bool, seed uint64) *Runner { return iexp.New(w, quick, seed) }

// Figures returns the available figure names, in order.
func Figures() []string { return append([]string(nil), iexp.Figures...) }
