// Package bitonic implements the paper's second application (§3.2): a
// variant of Batcher's bitonic sorting algorithm based on a sorting
// circuit. Every processor simulates one wire and holds a set of m keys in
// a global variable; the compare-exchange operation is replaced by a
// merge&split operation (the processor that would receive the minimum gets
// the lower m keys, the other one the upper m keys).
//
// Wires are mapped to processors by the decomposition tree's leaf
// numbering, so the locality in the arrangement of the merging circuits —
// phase i consists of 2^(logP−i) independent mergers over 2^i neighboring
// wires — matches the 2-ary mesh decomposition. This is the locality the
// access tree strategy exploits (and the reason the 2-ary and 2-4-ary
// variants win on this application).
//
// The hand-optimized strategy simply exchanges two messages between the
// two nodes of every merge&split operation, which is congestion-optimal
// for this embedding of the circuit.
package bitonic

import (
	"fmt"
	"math/bits"
	"sort"

	"diva/internal/core"
	"diva/internal/xrand"
)

// Config parameterizes one sorting run.
type Config struct {
	// KeysPerProc is the paper's m: 4-byte keys per processor.
	KeysPerProc int
	// WithCompute charges CPU time for the initial local sort and each
	// merge&split.
	WithCompute bool
	// CompareUS is the CPU cost per key comparison/move when WithCompute.
	CompareUS float64
	// Check carries real key values and verifies the output is the sorted
	// input. Without Check the traffic is identical (the algorithm is
	// oblivious) but no key arithmetic happens.
	Check bool
	// Seed generates the input keys.
	Seed uint64
}

// Result reports a finished run.
type Result struct {
	ElapsedUS float64
	Verified  bool
	Steps     int // total merge&split steps = logP(logP+1)/2
}

// Comparator is one compare-exchange in the sorting circuit: wires Lo < Hi;
// if Asc the minimum goes to Lo.
type Comparator struct {
	Lo, Hi int
	Asc    bool
}

// Circuit returns the bitonic sorting circuit for p wires (p a power of
// two) as a sequence of parallel steps; Figure 5 of the paper shows the
// p = 8 instance. Phase i (1-based, i = 1..log p) contributes i steps with
// comparators spanning 2^j wires, j = i-1..0; the direction of a
// comparator in phase i depends on bit i of its lower wire.
func Circuit(p int) [][]Comparator {
	if p <= 0 || p&(p-1) != 0 {
		panic(fmt.Sprintf("bitonic: %d wires is not a power of two", p))
	}
	logP := bits.Len(uint(p)) - 1
	var steps [][]Comparator
	for i := 1; i <= logP; i++ {
		for j := i - 1; j >= 0; j-- {
			step := make([]Comparator, 0, p/2)
			for w := 0; w < p; w++ {
				if w&(1<<j) == 0 {
					step = append(step, Comparator{Lo: w, Hi: w | 1<<j, Asc: w>>i&1 == 0})
				}
			}
			steps = append(steps, step)
		}
	}
	return steps
}

// stepCount is the number of steps of p wires' circuit, logP(logP+1)/2.
func stepCount(p int) int {
	logP := bits.Len(uint(p)) - 1
	return logP * (logP + 1) / 2
}

// comparator returns the comparator wire w takes part in at step si of the
// circuit: the one Circuit lists for it there.
func comparator(w, si int) Comparator {
	i := 1 // step si is in phase i, at span 2^j
	for ; si >= i; i++ {
		si -= i
	}
	j := i - 1 - si
	lo := w &^ (1 << j)
	return Comparator{Lo: lo, Hi: lo | 1<<j, Asc: lo>>i&1 == 0}
}

// genKeys produces the input keys of a wire.
func genKeys(seed uint64, wire, m int) []int32 {
	rng := xrand.New(seed ^ uint64(wire+1)*0x9e3779b97f4a7c15)
	keys := make([]int32, m)
	for i := range keys {
		keys[i] = int32(rng.Uint64())
	}
	return keys
}

// mergeSplit merges two sorted runs and returns the lower or upper half.
func mergeSplit(a, b []int32, lower bool) []int32 {
	m := len(a)
	out := make([]int32, m)
	if lower {
		i, j := 0, 0
		for k := 0; k < m; k++ {
			if j >= m || (i < m && a[i] <= b[j]) {
				out[k] = a[i]
				i++
			} else {
				out[k] = b[j]
				j++
			}
		}
		return out
	}
	i, j := m-1, m-1
	for k := m - 1; k >= 0; k-- {
		if j < 0 || (i >= 0 && a[i] > b[j]) {
			out[k] = a[i]
			i--
		} else {
			out[k] = b[j]
			j--
		}
	}
	return out
}

// sortCost is the CPU time of the initial local sort.
func (c Config) sortCost() float64 {
	m := c.KeysPerProc
	logM := 0
	for 1<<logM < m {
		logM++
	}
	return float64(m*logM) * c.CompareUS
}

// keepsLower reports whether wire w keeps the lower half in comparator cmp.
func keepsLower(cmp Comparator, w int) bool {
	return (w == cmp.Lo) == cmp.Asc
}

// RunDSM executes bitonic sorting through the machine's data management
// strategy. The machine's processor count must be a power of two.
func RunDSM(m *core.Machine, cfg Config) (Result, error) {
	if m.Strat == nil {
		return Result{}, fmt.Errorf("bitonic: machine has no data management strategy (use RunHandOpt, or build the machine with one)")
	}
	p := m.P()
	if p&(p-1) != 0 {
		return Result{}, fmt.Errorf("bitonic: %d processors is not a power of two", p)
	}
	keyBytes := 4 * cfg.KeysPerProc
	steps := stepCount(p)
	tree := m.Tree

	// wireOf[proc] is the wire the processor simulates (its leaf number);
	// procOf[wire] the inverse.
	procOf := tree.ProcOfLeaf
	wireOf := make([]int, p)
	for w, pr := range procOf {
		wireOf[pr] = w
	}

	// One global variable per wire, holding the wire's current keys.
	vars := make([]core.VarID, p)
	for w := 0; w < p; w++ {
		var keys []int32
		if cfg.Check {
			keys = genKeys(cfg.Seed, w, cfg.KeysPerProc)
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		}
		vars[w] = m.AllocAt(procOf[w], keyBytes, keys)
	}

	runErr := m.Run(func(pr *core.Proc) {
		w := wireOf[pr.ID]
		if cfg.WithCompute {
			pr.Compute(cfg.sortCost())
		}
		for si := range steps {
			cmp := comparator(w, si)
			partner := cmp.Lo + cmp.Hi - w
			other := pr.Read(vars[partner])
			var next []int32
			if cfg.Check {
				// Reading the own variable is a local cache hit: the
				// processor wrote it last step (or created it).
				mine := pr.Read(vars[w]).([]int32)
				next = mergeSplit(mine, other.([]int32), keepsLower(cmp, w))
			}
			if cfg.WithCompute {
				pr.Compute(float64(2*cfg.KeysPerProc) * cfg.CompareUS)
			}
			// The write must not overtake the partner's read of the old
			// value, and the next step's read must see the new value.
			pr.Barrier()
			pr.Write(vars[w], next)
			pr.Barrier()
		}
	})
	if runErr != nil {
		return Result{}, runErr
	}
	res := Result{ElapsedUS: m.Elapsed(), Steps: steps}
	if cfg.Check {
		if err := verifySorted(m, vars, cfg); err != nil {
			return res, err
		}
		res.Verified = true
	}
	return res, nil
}

// verifySorted checks that the wires, in leaf order, hold the ascending
// sorted multiset of all input keys.
func verifySorted(m *core.Machine, vars []core.VarID, cfg Config) error {
	var all []int32
	var prev int32
	first := true
	for w := range vars {
		keys := m.Var(vars[w]).Data.([]int32)
		if len(keys) != cfg.KeysPerProc {
			return fmt.Errorf("bitonic: wire %d holds %d keys", w, len(keys))
		}
		for _, k := range keys {
			if !first && k < prev {
				return fmt.Errorf("bitonic: output not sorted at wire %d", w)
			}
			prev, first = k, false
			all = append(all, k)
		}
	}
	var want []int32
	for w := range vars {
		want = append(want, genKeys(cfg.Seed, w, cfg.KeysPerProc)...)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if all[i] != want[i] {
			return fmt.Errorf("bitonic: output multiset differs from input at %d", i)
		}
	}
	return nil
}

// RunHandOpt executes the hand-optimized message passing strategy: two
// messages between the nodes of every merge&split, no barriers (message
// arrival is the synchronization).
func RunHandOpt(m *core.Machine, cfg Config) (Result, error) {
	p := m.P()
	if p&(p-1) != 0 {
		return Result{}, fmt.Errorf("bitonic: %d processors is not a power of two", p)
	}
	keyBytes := 4 * cfg.KeysPerProc
	steps := stepCount(p)
	tree := m.Tree
	procOf := tree.ProcOfLeaf
	wireOf := make([]int, p)
	for w, pr := range procOf {
		wireOf[pr] = w
	}

	final := make([][]int32, p)
	runErr := m.Run(func(pr *core.Proc) {
		w := wireOf[pr.ID]
		var keys []int32
		if cfg.Check {
			keys = genKeys(cfg.Seed, w, cfg.KeysPerProc)
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		}
		if cfg.WithCompute {
			pr.Compute(cfg.sortCost())
		}
		for si := range steps {
			cmp := comparator(w, si)
			partner := cmp.Lo + cmp.Hi - w
			m.Net.SendInbox(pr.Proc, pr.ID, procOf[partner], core.HeaderBytes+keyBytes, si, keys)
			got := m.Net.Recv(pr.Proc, pr.ID, si)
			if cfg.Check {
				keys = mergeSplit(keys, got.Payload.([]int32), keepsLower(cmp, w))
			}
			if cfg.WithCompute {
				pr.Compute(float64(2*cfg.KeysPerProc) * cfg.CompareUS)
			}
		}
		final[w] = keys
	})
	if runErr != nil {
		return Result{}, runErr
	}
	res := Result{ElapsedUS: m.Elapsed(), Steps: steps}
	if cfg.Check {
		var prev int32
		firstKey := true
		count := 0
		for w := 0; w < p; w++ {
			for _, k := range final[w] {
				if !firstKey && k < prev {
					return res, fmt.Errorf("bitonic: hand-opt output not sorted at wire %d", w)
				}
				prev, firstKey = k, false
				count++
			}
		}
		if count != p*cfg.KeysPerProc {
			return res, fmt.Errorf("bitonic: hand-opt lost keys: %d of %d", count, p*cfg.KeysPerProc)
		}
		res.Verified = true
	}
	return res, nil
}
