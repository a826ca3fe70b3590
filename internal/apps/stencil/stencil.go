// Package stencil implements an iterative halo-exchange kernel: every
// processor owns one block of a regular grid and, per iteration, trades
// boundary strips ("halos") with its mesh neighbors, optionally computes
// on its block, and joins a global barrier. The communication pattern —
// nearest-neighbor messages plus one collective per step — is the classic
// complement to the paper's three applications: it exercises the barrier
// on every iteration (matmul and bitonic hand-opt use none) and generates
// uniformly distributed short-haul traffic instead of hotspots.
//
// There is only a hand-optimized message passing variant; the pattern has
// no shared-variable formulation that isn't just this exchange.
package stencil

import (
	"fmt"

	"diva/internal/core"
	"diva/internal/mesh"
)

// Config parameterizes one stencil run.
type Config struct {
	// Iters is the number of exchange-compute-barrier iterations.
	Iters int
	// HaloInts is the number of 4-byte values in each halo strip.
	HaloInts int
	// WithCompute charges OpUS per halo value per neighbor each iteration.
	WithCompute bool
	// OpUS is the CPU cost per halo value when WithCompute.
	OpUS float64
	// Check carries real halo values and verifies every processor's
	// accumulated checksum. Without Check the traffic is identical.
	Check bool
	// Seed generates the halo values.
	Seed uint64
}

// Result reports a finished run.
type Result struct {
	ElapsedUS float64
	Iters     int
	Verified  bool
}

// neighbors returns each processor's halo partners: the up/down/left/right
// grid neighbors on a grid topology, the two id-ring neighbors otherwise.
// All lists share one backing array.
func neighbors(t mesh.Topology) [][]int {
	n := t.N()
	nb := make([][]int, n)
	if rows, cols, ok := t.Grid(); ok {
		flat := make([]int, 0, 4*n)
		for p := 0; p < n; p++ {
			r, c, start := p/cols, p%cols, len(flat)
			if r > 0 {
				flat = append(flat, p-cols)
			}
			if r < rows-1 {
				flat = append(flat, p+cols)
			}
			if c > 0 {
				flat = append(flat, p-1)
			}
			if c < cols-1 {
				flat = append(flat, p+1)
			}
			nb[p] = flat[start:len(flat):len(flat)]
		}
		return nb
	}
	flat := make([]int, 2*n)
	for p := 0; p < n; p++ {
		flat[2*p], flat[2*p+1] = (p+n-1)%n, (p+1)%n
		nb[p] = flat[2*p : 2*p+2 : 2*p+2]
	}
	return nb
}

// haloVal is the deterministic checksum contribution of src's halo in
// iteration it (mixed so neighboring (src, it) pairs differ everywhere).
func haloVal(seed uint64, src, it int) uint64 {
	x := seed ^ uint64(src+1)*0x9e3779b97f4a7c15 ^ uint64(it+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x
}

// Run executes the hand-optimized halo exchange.
func Run(m *core.Machine, cfg Config) (Result, error) {
	if cfg.Iters <= 0 || cfg.HaloInts <= 0 {
		return Result{}, fmt.Errorf("stencil: iterations and halo size must be positive, have %d/%d", cfg.Iters, cfg.HaloInts)
	}
	nb := neighbors(m.Topo)
	haloBytes := 4 * cfg.HaloInts
	sums := make([]uint64, m.P())
	runErr := m.Run(func(pr *core.Proc) {
		var sum uint64
		for it := 0; it < cfg.Iters; it++ {
			var val uint64
			if cfg.Check {
				val = haloVal(cfg.Seed, pr.ID, it)
			}
			for _, d := range nb[pr.ID] {
				m.Net.SendInbox(pr.Proc, pr.ID, d, core.HeaderBytes+haloBytes, it, val)
			}
			for range nb[pr.ID] {
				got := m.Net.Recv(pr.Proc, pr.ID, it)
				if cfg.Check {
					sum += got.Payload.(uint64)
				}
			}
			if cfg.WithCompute {
				pr.Compute(float64(cfg.HaloInts*len(nb[pr.ID])) * cfg.OpUS)
			}
			pr.Barrier()
		}
		sums[pr.ID] = sum
	})
	if runErr != nil {
		return Result{}, runErr
	}
	res := Result{ElapsedUS: m.Elapsed(), Iters: cfg.Iters}
	if cfg.Check {
		for p := 0; p < m.P(); p++ {
			var want uint64
			for it := 0; it < cfg.Iters; it++ {
				for _, d := range nb[p] {
					want += haloVal(cfg.Seed, d, it)
				}
			}
			if sums[p] != want {
				return res, fmt.Errorf("stencil: processor %d checksum mismatch", p)
			}
		}
		res.Verified = true
	}
	return res, nil
}
