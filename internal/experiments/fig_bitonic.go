package experiments

import (
	"fmt"

	"diva/internal/apps/bitonic"
	"diva/internal/core"
	"diva/internal/decomp"
)

// runBitonic measures one (mesh, keys, strategy) configuration with
// execution time (the paper: local computation is very limited, so the
// execution time is reported; we charge the compare/merge costs).
func (r *Runner) runBitonic(side, keys int, f core.Factory, spec decomp.Spec) (mmPoint, error) {
	m := r.machine(side, side, f, spec)
	cfg := bitonic.Config{
		KeysPerProc: keys, Seed: r.Seed,
		WithCompute: true, CompareUS: 1.0,
	}
	var (
		res bitonic.Result
		err error
	)
	if f == nil {
		res, err = bitonic.RunHandOpt(m, cfg)
	} else {
		res, err = bitonic.RunDSM(m, cfg)
	}
	if err != nil {
		return mmPoint{}, err
	}
	return mmPoint{congBytes: m.Net.Congestion(nil).MaxBytes, timeUS: res.ElapsedUS}, nil
}

// fig6Paper: values read off Figure 6 (16×16 mesh, 2-4-ary access tree).
var fig6Paper = map[int][4]float64{
	// keys: {FH cong, AT cong, FH time, AT time}
	256:   {8.11, 2.95, 6.00, 4.11},
	1024:  {7.26, 2.72, 6.01, 3.41},
	4096:  {7.07, 2.76, 6.09, 3.06},
	16384: {7.07, 2.75, 5.86, 2.83},
}

// Fig6 reproduces Figure 6: bitonic sorting on a 16×16 mesh, congestion
// and execution time ratio versus keys per processor, for the fixed home
// and the 2-4-ary access tree strategy.
func (r *Runner) Fig6() error {
	side := 16
	keys := []int{256, 1024, 4096, 16384}
	if r.Quick {
		side = 8
		keys = []int{256, 1024, 4096}
	}
	r.header(fmt.Sprintf("Figure 6: bitonic sorting on a %dx%d mesh (ratios vs hand-optimized)", side, side))

	fh, at := fhFactory(), atFactory()
	cells, err := runRatioCells(r, len(keys), func(row, kind int) (mmPoint, error) {
		switch kind {
		case 0:
			return r.runBitonic(side, keys[row], nil, decomp.Ary2)
		case 1:
			return r.runBitonic(side, keys[row], fh, decomp.Ary2)
		default:
			return r.runBitonic(side, keys[row], at, decomp.Ary2K4)
		}
	})
	if err != nil {
		return err
	}

	rows := [][]string{{"keys", "congFH", "congAT24", "AT/FH", "timeFH", "timeAT24", "AT/FH", "", "paper(16x16): congFH", "congAT24", "timeFH", "timeAT24"}}
	for i, k := range keys {
		c := cells[i]
		congFH := float64(c.fh.congBytes) / float64(c.hand.congBytes)
		congAT := float64(c.at.congBytes) / float64(c.hand.congBytes)
		timeFH := c.fh.timeUS / c.hand.timeUS
		timeAT := c.at.timeUS / c.hand.timeUS
		p := fig6Paper[k]
		rows = append(rows, []string{
			fmt.Sprint(k),
			f2(congFH), f2(congAT), pct(congAT / congFH),
			f2(timeFH), f2(timeAT), pct(timeAT / timeFH),
			"|", f2(p[0]), f2(p[1]), f2(p[2]), f2(p[3]),
		})
	}
	table(r.W, rows)
	return nil
}

// fig7Paper: values read off Figure 7 (4096 keys per processor).
var fig7Paper = map[int][4]float64{
	// side: {FH cong, AT cong, FH time, AT time}
	4:  {2.81, 2.08, 2.46, 2.03},
	8:  {4.74, 2.23, 4.57, 2.76},
	16: {7.03, 2.76, 6.11, 3.06},
	32: {10.48, 2.90, 7.61, 3.07},
}

// Fig7 reproduces Figure 7: bitonic sorting with 4096 keys per processor,
// scaling the network from 4×4 to 32×32. The paper's analysis: the FH
// congestion ratio grows like log²P; the AT ratio converges to ≈3.
func (r *Runner) Fig7() error {
	keys := 4096
	sides := []int{4, 8, 16, 32}
	if r.Quick {
		keys = 1024
		sides = []int{4, 8, 16}
	}
	r.header(fmt.Sprintf("Figure 7: bitonic sorting with %d keys per processor (ratios vs hand-optimized)", keys))

	fh, at := fhFactory(), atFactory()
	cells, err := runRatioCells(r, len(sides), func(row, kind int) (mmPoint, error) {
		switch kind {
		case 0:
			return r.runBitonic(sides[row], keys, nil, decomp.Ary2)
		case 1:
			return r.runBitonic(sides[row], keys, fh, decomp.Ary2)
		default:
			return r.runBitonic(sides[row], keys, at, decomp.Ary2K4)
		}
	})
	if err != nil {
		return err
	}

	rows := [][]string{{"mesh", "congFH", "congAT24", "AT/FH", "timeFH", "timeAT24", "AT/FH", "", "paper(4096): congFH", "congAT24", "timeFH", "timeAT24"}}
	for i, side := range sides {
		c := cells[i]
		congFH := float64(c.fh.congBytes) / float64(c.hand.congBytes)
		congAT := float64(c.at.congBytes) / float64(c.hand.congBytes)
		timeFH := c.fh.timeUS / c.hand.timeUS
		timeAT := c.at.timeUS / c.hand.timeUS
		p := fig7Paper[side]
		rows = append(rows, []string{
			fmt.Sprintf("%dx%d", side, side),
			f2(congFH), f2(congAT), pct(congAT / congFH),
			f2(timeFH), f2(timeAT), pct(timeAT / timeFH),
			"|", f2(p[0]), f2(p[1]), f2(p[2]), f2(p[3]),
		})
	}
	table(r.W, rows)
	return nil
}
