package bitonic

import (
	"sort"
	"testing"
	"testing/quick"

	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/core/fixedhome"
	"diva/internal/decomp"
)

func newMachine(rows, cols int, f core.Factory, spec decomp.Spec) *core.Machine {
	return core.MustNewMachine(core.Config{
		Rows: rows, Cols: cols, Seed: 77, Tree: spec, Strategy: f,
	})
}

// TestCircuitFigure5 pins the structure of the paper's Figure 5 (P = 8):
// the circuit has 6 steps (phases of 1+2+3 steps) with 4 comparators each.
func TestCircuitFigure5(t *testing.T) {
	steps := Circuit(8)
	if len(steps) != 6 {
		t.Fatalf("8-wire circuit has %d steps, want 6", len(steps))
	}
	for si, step := range steps {
		if len(step) != 4 {
			t.Fatalf("step %d has %d comparators, want 4", si, len(step))
		}
	}
	// Phase 1 (step 0): comparators [0:1][2:3][4:5][6:7], alternating
	// direction: blocks of 2 sorted ascending/descending alternately.
	first := steps[0]
	for ci, c := range first {
		if c.Hi != c.Lo+1 || c.Lo != 2*ci {
			t.Fatalf("step 0 comparator %d = %+v", ci, c)
		}
		wantAsc := ci%2 == 0
		if c.Asc != wantAsc {
			t.Fatalf("step 0 comparator %d direction %v, want %v", ci, c.Asc, wantAsc)
		}
	}
	// Final phase (steps 3,4,5): all ascending, spans 4, 2, 1.
	for si, span := range map[int]int{3: 4, 4: 2, 5: 1} {
		for _, c := range steps[si] {
			if !c.Asc {
				t.Fatalf("final-phase step %d has a descending comparator", si)
			}
			if c.Hi-c.Lo != span {
				t.Fatalf("step %d span %d, want %d", si, c.Hi-c.Lo, span)
			}
		}
	}
}

// TestCircuitZeroOnePrinciple: by the 0-1 principle, a comparator network
// sorts all inputs iff it sorts all 0-1 inputs. Exhaustively check P=8 and
// P=16.
func TestCircuitZeroOnePrinciple(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16} {
		steps := Circuit(p)
		for mask := 0; mask < 1<<p; mask++ {
			wires := make([]int, p)
			for w := range wires {
				wires[w] = mask >> w & 1
			}
			for _, step := range steps {
				for _, c := range step {
					lo, hi := wires[c.Lo], wires[c.Hi]
					if c.Asc && lo > hi || !c.Asc && lo < hi {
						wires[c.Lo], wires[c.Hi] = hi, lo
					}
				}
			}
			for w := 1; w < p; w++ {
				if wires[w-1] > wires[w] {
					t.Fatalf("P=%d: circuit fails on 0-1 input %b", p, mask)
				}
			}
		}
	}
}

func TestCircuitStepCount(t *testing.T) {
	// logP(logP+1)/2 steps.
	for p, want := range map[int]int{2: 1, 4: 3, 8: 6, 16: 10, 256: 36} {
		if got := len(Circuit(p)); got != want {
			t.Errorf("Circuit(%d) has %d steps, want %d", p, got, want)
		}
	}
}

// TestComparatorMatchesCircuit: the comparator the runs take for a wire at
// a step is the one Circuit lists for that wire there, for every step and
// wire, and stepCount counts Circuit's steps.
func TestComparatorMatchesCircuit(t *testing.T) {
	for p := 1; p <= 1024; p *= 2 {
		steps := Circuit(p)
		if n := stepCount(p); n != len(steps) {
			t.Fatalf("P=%d: stepCount %d, circuit has %d steps", p, n, len(steps))
		}
		listed := make([]Comparator, p)
		for si, step := range steps {
			for _, c := range step {
				listed[c.Lo], listed[c.Hi] = c, c
			}
			for w := range p {
				if got := comparator(w, si); got != listed[w] {
					t.Fatalf("P=%d step %d wire %d: comparator %+v, circuit lists %+v", p, si, w, got, listed[w])
				}
			}
		}
	}
}

func TestMergeSplit(t *testing.T) {
	a := []int32{1, 4, 6}
	b := []int32{2, 3, 9}
	lo := mergeSplit(a, b, true)
	hi := mergeSplit(a, b, false)
	wantLo := []int32{1, 2, 3}
	wantHi := []int32{4, 6, 9}
	for i := range lo {
		if lo[i] != wantLo[i] || hi[i] != wantHi[i] {
			t.Fatalf("mergeSplit = %v / %v, want %v / %v", lo, hi, wantLo, wantHi)
		}
	}
}

func TestMergeSplitProperty(t *testing.T) {
	check := func(xs, ys []int32) bool {
		if len(xs) > len(ys) {
			xs = xs[:len(ys)]
		} else {
			ys = ys[:len(xs)]
		}
		if len(xs) == 0 {
			return true
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
		lo := mergeSplit(xs, ys, true)
		hi := mergeSplit(xs, ys, false)
		// Union must be the input multiset; lo sorted ≤ hi sorted.
		all := append(append([]int32{}, lo...), hi...)
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		want := append(append([]int32{}, xs...), ys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if all[i] != want[i] {
				return false
			}
		}
		return lo[len(lo)-1] <= hi[0]
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDSMSortCorrect(t *testing.T) {
	for name, f := range map[string]core.Factory{
		"fixedhome":   fixedhome.Factory(),
		"accesstree2": accesstree.Factory(),
	} {
		t.Run(name, func(t *testing.T) {
			m := newMachine(2, 2, f, decomp.Ary2)
			res, err := RunDSM(m, Config{KeysPerProc: 32, Check: true, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified || res.Steps != 3 {
				t.Fatalf("res = %+v", res)
			}
		})
	}
}

func TestDSMSortCorrect4x4(t *testing.T) {
	for _, spec := range []decomp.Spec{decomp.Ary2, decomp.Ary2K4, decomp.Ary4} {
		t.Run(spec.Name(), func(t *testing.T) {
			m := newMachine(4, 4, accesstree.Factory(), spec)
			res, err := RunDSM(m, Config{KeysPerProc: 16, Check: true, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatal("not verified")
			}
		})
	}
}

func TestHandOptSortCorrect(t *testing.T) {
	m := newMachine(4, 4, nil, decomp.Ary2)
	res, err := RunHandOpt(m, Config{KeysPerProc: 64, Check: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Steps != 10 {
		t.Fatalf("res = %+v", res)
	}
}

func TestNonPowerOfTwoRejected(t *testing.T) {
	m := newMachine(3, 3, accesstree.Factory(), decomp.Ary2)
	if _, err := RunDSM(m, Config{KeysPerProc: 8}); err == nil {
		t.Fatal("9 processors accepted")
	}
}

// TestHandOptCongestionOptimal: the 2-4-ary access tree must produce more
// congestion than the pairwise exchange, but within a small factor (the
// paper's ratio converges to about 3).
func TestStrategyOrdering(t *testing.T) {
	cfg := Config{KeysPerProc: 256}
	hand := func() uint64 {
		m := newMachine(4, 4, nil, decomp.Ary2)
		if _, err := RunHandOpt(m, cfg); err != nil {
			t.Fatal(err)
		}
		return m.Net.Congestion(nil).MaxBytes
	}()
	at := func() uint64 {
		m := newMachine(4, 4, accesstree.Factory(), decomp.Ary2K4)
		if _, err := RunDSM(m, cfg); err != nil {
			t.Fatal(err)
		}
		return m.Net.Congestion(nil).MaxBytes
	}()
	fh := func() uint64 {
		m := newMachine(4, 4, fixedhome.Factory(), decomp.Ary2)
		if _, err := RunDSM(m, cfg); err != nil {
			t.Fatal(err)
		}
		return m.Net.Congestion(nil).MaxBytes
	}()
	if !(hand < at && at < fh) {
		t.Fatalf("congestion ordering violated: hand=%d at=%d fh=%d", hand, at, fh)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		m := newMachine(4, 4, accesstree.Factory(), decomp.Ary2K4)
		res, err := RunDSM(m, Config{KeysPerProc: 64})
		if err != nil {
			t.Fatal(err)
		}
		return res.ElapsedUS
	}
	if run() != run() {
		t.Fatal("nondeterministic elapsed time")
	}
}

func TestSingleProcessorSort(t *testing.T) {
	m := newMachine(1, 1, accesstree.Factory(), decomp.Ary2)
	res, err := RunDSM(m, Config{KeysPerProc: 16, Check: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Steps != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestWithComputeChargesSortTime(t *testing.T) {
	run := func(wc bool) float64 {
		m := newMachine(2, 2, accesstree.Factory(), decomp.Ary2)
		res, err := RunDSM(m, Config{KeysPerProc: 128, WithCompute: wc, CompareUS: 3.45, Check: true, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.ElapsedUS
	}
	if run(true) <= run(false) {
		t.Fatal("compute cost did not extend the run")
	}
}
