// Package matmul implements the paper's first application (§3.1): squaring
// a matrix, A := A·A, blocked over a √P×√P processor grid.
//
// The matrix square (rather than general multiplication C := A·B) is used
// because it forces the data management strategy to create and invalidate
// copies of the matrix entries.
//
// Each block A[i,j] is one global variable, initialized by (and resident
// at) processor p_{i,j}. The parallel program is the paper's: a "read
// phase" of √P staggered steps — in step k', processor p_{i,j} reads
// A[i,k] and A[k,j] with k = (k'+i+j) mod √P, so at most two processors
// read the same block in the same step — followed by a barrier, then a
// "write phase" storing the locally accumulated block back into A[i,j].
// The copies end up in the initial configuration, so the algorithm can be
// applied repeatedly to compute higher powers.
//
// The hand-optimized message passing strategy pipelines every block along
// its row and column with neighbor-to-neighbor messages, achieving minimal
// total communication load and minimal congestion (m·√P).
package matmul

import (
	"fmt"
	"math"

	"diva/internal/core"
	"diva/internal/mesh"
	"diva/internal/xrand"
)

// Config parameterizes one matrix-square run.
type Config struct {
	// BlockInts is the paper's block size m: the number of 4-byte integers
	// per block. Must be a perfect square (the block is a b×b submatrix).
	BlockInts int
	// WithCompute charges the CPU cost of the local block multiplications
	// (b³ multiply-adds per step). The paper measures "communication time"
	// with local computation removed; leave false to reproduce that.
	WithCompute bool
	// OpUS is the CPU cost per multiply-add when WithCompute is set.
	OpUS float64
	// Check verifies the result against a sequential matrix square. The
	// actual arithmetic is only performed when Check is set: traffic is
	// identical either way and large runs skip the O(n³) work.
	Check bool
	// Seed generates the input matrix.
	Seed uint64
}

// Result reports a finished run.
type Result struct {
	ElapsedUS float64
	// Verified is set when Check was requested and the result matched.
	Verified bool
}

// block is a b×b submatrix in row-major order.
type block []int32

// Dims derives the grid geometry: s = √P processors per side, b = √m block
// side length.
func (c Config) Dims(p int) (s, b int, err error) {
	s = int(math.Sqrt(float64(p)))
	if s*s != p {
		return 0, 0, fmt.Errorf("matmul: %d processors is not a square grid", p)
	}
	b = int(math.Sqrt(float64(c.BlockInts)))
	if b*b != c.BlockInts || b == 0 {
		return 0, 0, fmt.Errorf("matmul: block size %d is not a positive square", c.BlockInts)
	}
	return s, b, nil
}

// genBlock deterministically generates block (i,j). Entries are small so
// that block products cannot overflow int32.
func genBlock(seed uint64, i, j, b int) block {
	rng := xrand.New(seed ^ uint64(i*7919+j+1)*0x9e3779b97f4a7c15)
	bl := make(block, b*b)
	for k := range bl {
		bl[k] = int32(rng.Intn(15) - 7)
	}
	return bl
}

// mulAdd accumulates h += x·y for b×b blocks.
func mulAdd(h, x, y block, b int) {
	for r := 0; r < b; r++ {
		for k := 0; k < b; k++ {
			xv := x[r*b+k]
			if xv == 0 {
				continue
			}
			row := y[k*b:]
			out := h[r*b:]
			for c := 0; c < b; c++ {
				out[c] += xv * row[c]
			}
		}
	}
}

// RunDSM executes the matrix square through the machine's data management
// strategy (access tree or fixed home).
func RunDSM(m *core.Machine, cfg Config) (Result, error) {
	if m.Strat == nil {
		return Result{}, fmt.Errorf("matmul: machine has no data management strategy (use RunHandOpt, or build the machine with one)")
	}
	// The DSM version communicates only through the data management
	// strategy, so it runs on any topology with a square processor count.
	s, b, err := cfg.Dims(m.P())
	if err != nil {
		return Result{}, err
	}
	blockBytes := 4 * cfg.BlockInts

	// One global variable per block, created at its owner.
	vars := make([]core.VarID, m.P())
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			proc := i*s + j
			var data block
			if cfg.Check {
				data = genBlock(cfg.Seed, i, j, b)
			}
			vars[proc] = m.AllocAt(proc, blockBytes, data)
		}
	}

	runErr := m.Run(func(p *core.Proc) {
		i, j := p.ID/s, p.ID%s
		var h block
		if cfg.Check {
			h = make(block, cfg.BlockInts)
		}
		// Read phase: staggered block reads.
		for kp := 0; kp < s; kp++ {
			k := (kp + i + j) % s
			a := p.Read(vars[i*s+k])
			bb := p.Read(vars[k*s+j])
			if cfg.Check {
				mulAdd(h, a.(block), bb.(block), b)
			}
			if cfg.WithCompute {
				p.Compute(float64(b*b*b) * cfg.OpUS)
			}
		}
		p.Barrier()
		// Write phase: store the accumulated block.
		if cfg.Check {
			p.Write(vars[p.ID], h)
		} else {
			p.Write(vars[p.ID], p.M.Var(vars[p.ID]).Data)
		}
		p.Barrier()
	})
	if runErr != nil {
		return Result{}, runErr
	}

	res := Result{ElapsedUS: m.Elapsed()}
	if cfg.Check {
		if err := verify(m, vars, cfg, s, b); err != nil {
			return res, err
		}
		res.Verified = true
	}
	return res, nil
}

// verify recomputes the square sequentially and compares every block.
func verify(m *core.Machine, vars []core.VarID, cfg Config, s, b int) error {
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			want := make(block, cfg.BlockInts)
			for k := 0; k < s; k++ {
				mulAdd(want, genBlock(cfg.Seed, i, k, b), genBlock(cfg.Seed, k, j, b), b)
			}
			got := m.Var(vars[i*s+j]).Data.(block)
			for x := range want {
				if got[x] != want[x] {
					return fmt.Errorf("matmul: block (%d,%d) entry %d = %d, want %d",
						i, j, x, got[x], want[x])
				}
			}
		}
	}
	return nil
}

// handMsg is a block in flight in the hand-optimized strategy.
type handMsg struct {
	origin int      // owning processor
	dir    mesh.Dir // direction of travel
	data   block
}

// RunHandOpt executes the communication pattern of the hand-optimized
// message passing strategy: every block travels along its row and its
// column via neighbor-to-neighbor store-and-forward messages; every
// processor passed keeps a copy. The machine needs no data management
// strategy.
func RunHandOpt(m *core.Machine, cfg Config) (Result, error) {
	mm, ok := m.MeshTopo()
	if !ok || mm.Rows != mm.Cols {
		return Result{}, fmt.Errorf("matmul: hand-optimized version needs a square mesh, have %s", m.Topo)
	}
	s, b, err := cfg.Dims(m.P())
	if err != nil {
		return Result{}, err
	}
	blockBytes := 4 * cfg.BlockInts
	nw := m.Net

	verified := true
	launched := make([]handMsg, 4*m.P()) // each processor's block, one per direction
	runErr := m.Run(func(p *core.Proc) {
		i, j := p.ID/s, p.ID%s
		var own block
		if cfg.Check {
			own = genBlock(cfg.Seed, i, j, b)
		}
		// Launch the block in all four directions.
		for k, d := range []mesh.Dir{mesh.East, mesh.West, mesh.South, mesh.North} {
			if mm.HasLink(p.ID, d) {
				hm := &launched[4*p.ID+k]
				*hm = handMsg{origin: p.ID, dir: d, data: own}
				nw.SendInbox(p.Proc, p.ID, mm.Neighbor(p.ID, d), core.HeaderBytes+blockBytes, anyTag, hm)
			}
		}
		// Receive 2(s-1) blocks: s-1 from the row, s-1 from the column.
		// Forward each one onward in its direction of travel. With Check,
		// keep the row's blocks by origin column and the column's by origin
		// row.
		var rowBlocks, colBlocks []block
		if cfg.Check {
			rowBlocks, colBlocks = make([]block, s), make([]block, s)
		}
		for got := 0; got < 2*(s-1); got++ {
			hm := nw.Recv(p.Proc, p.ID, anyTag).Payload.(*handMsg)
			if cfg.Check {
				if hm.dir == mesh.East || hm.dir == mesh.West {
					rowBlocks[hm.origin%s] = hm.data
				} else {
					colBlocks[hm.origin/s] = hm.data
				}
			}
			if mm.HasLink(p.ID, hm.dir) {
				nw.SendInbox(p.Proc, p.ID, mm.Neighbor(p.ID, hm.dir), core.HeaderBytes+blockBytes, anyTag, hm)
			}
		}
		if cfg.WithCompute {
			p.Compute(float64(s*b*b*b) * cfg.OpUS)
		}
		if cfg.Check {
			rowBlocks[j] = own
			colBlocks[i] = own
			h := make(block, cfg.BlockInts)
			for k := 0; k < s; k++ {
				mulAdd(h, rowBlocks[k], colBlocks[k], b)
			}
			want := make(block, cfg.BlockInts)
			for k := 0; k < s; k++ {
				mulAdd(want, genBlock(cfg.Seed, i, k, b), genBlock(cfg.Seed, k, j, b), b)
			}
			for x := range want {
				if h[x] != want[x] {
					verified = false
				}
			}
		}
	})
	if runErr != nil {
		return Result{}, runErr
	}
	res := Result{ElapsedUS: m.Elapsed()}
	if cfg.Check {
		if !verified {
			return res, fmt.Errorf("matmul: hand-optimized result mismatch")
		}
		res.Verified = true
	}
	return res, nil
}

// anyTag is the single inbox stream used by the hand-optimized program.
const anyTag = 0
