package experiments

import (
	"fmt"

	"diva/internal/apps/matmul"
	"diva/internal/core"
	"diva/internal/decomp"
)

// mmPoint is one matmul measurement.
type mmPoint struct {
	congBytes uint64
	timeUS    float64
}

// runMatmulOn runs the DSM matrix square on a prepared machine and returns
// the communication time (used by the ablation experiments).
func runMatmulOn(m *core.Machine, blockInts int, seed uint64) (float64, error) {
	res, err := matmul.RunDSM(m, matmul.Config{BlockInts: blockInts, Seed: seed})
	if err != nil {
		return 0, err
	}
	return res.ElapsedUS, nil
}

// mmRatioRow holds the three cells of one ratio-figure row.
type mmRatioRow struct {
	hand, fh, at mmPoint
}

// runRatioCells evaluates the rows of a matmul/bitonic ratio figure —
// (hand-optimized, fixed home, access tree) per parameter value — through
// the runner's cell fan-out: every cell is an independent simulation, so
// they spread across the shared worker pool and reassemble in row order.
func runRatioCells(r *Runner, n int, cell func(row, kind int) (mmPoint, error)) ([]mmRatioRow, error) {
	points, err := runCells(r, 3*n, func(i int) (mmPoint, error) {
		return cell(i/3, i%3)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]mmRatioRow, n)
	for i := range rows {
		rows[i] = mmRatioRow{hand: points[3*i], fh: points[3*i+1], at: points[3*i+2]}
	}
	return rows, nil
}

// runMatmul measures one (mesh, block, strategy) configuration in the
// paper's communication-time mode.
func (r *Runner) runMatmul(side, blockInts int, f core.Factory, spec decomp.Spec) (mmPoint, error) {
	m := r.machine(side, side, f, spec)
	cfg := matmul.Config{BlockInts: blockInts, Seed: r.Seed}
	var (
		res matmul.Result
		err error
	)
	if f == nil {
		res, err = matmul.RunHandOpt(m, cfg)
	} else {
		res, err = matmul.RunDSM(m, cfg)
	}
	if err != nil {
		return mmPoint{}, err
	}
	return mmPoint{congBytes: m.Net.Congestion(nil).MaxBytes, timeUS: res.ElapsedUS}, nil
}

// fig3Paper holds the values read off Figure 3 of the paper (16×16 mesh).
var fig3Paper = map[int][4]float64{
	// block: {FH cong ratio, AT4 cong ratio, FH time ratio, AT4 time ratio}
	64:   {33.32, 9.25, 13.83, 7.54},
	256:  {26.61, 7.19, 11.89, 6.08},
	1024: {24.94, 6.67, 10.71, 4.93},
	4096: {24.52, 6.55, 10.32, 4.50},
}

// Fig3 reproduces Figure 3: matrix multiplication on a 16×16 mesh,
// congestion ratio and communication time ratio versus block size, for the
// fixed home and the 4-ary access tree strategy (relative to the
// hand-optimized message passing strategy).
func (r *Runner) Fig3() error {
	side := 16
	blocks := []int{64, 256, 1024, 4096}
	if r.Quick {
		side = 8
		blocks = []int{64, 256, 1024}
	}
	r.header(fmt.Sprintf("Figure 3: matrix multiplication on a %dx%d mesh (ratios vs hand-optimized)", side, side))

	fh, at := fhFactory(), atFactory()
	cells, err := runRatioCells(r, len(blocks), func(row, kind int) (mmPoint, error) {
		switch kind {
		case 0:
			return r.runMatmul(side, blocks[row], nil, decomp.Ary2)
		case 1:
			return r.runMatmul(side, blocks[row], fh, decomp.Ary4)
		default:
			return r.runMatmul(side, blocks[row], at, decomp.Ary4)
		}
	})
	if err != nil {
		return err
	}

	rows := [][]string{{"block", "congFH", "congAT4", "AT/FH", "timeFH", "timeAT4", "AT/FH", "", "paper(16x16): congFH", "congAT4", "timeFH", "timeAT4"}}
	for i, blk := range blocks {
		c := cells[i]
		congFH := float64(c.fh.congBytes) / float64(c.hand.congBytes)
		congAT := float64(c.at.congBytes) / float64(c.hand.congBytes)
		timeFH := c.fh.timeUS / c.hand.timeUS
		timeAT := c.at.timeUS / c.hand.timeUS
		p, hasPaper := fig3Paper[blk]
		paper := []string{"", "", "", ""}
		if hasPaper {
			paper = []string{f2(p[0]), f2(p[1]), f2(p[2]), f2(p[3])}
		}
		rows = append(rows, []string{
			fmt.Sprint(blk),
			f2(congFH), f2(congAT), pct(congAT / congFH),
			f2(timeFH), f2(timeAT), pct(timeAT / timeFH),
			"|", paper[0], paper[1], paper[2], paper[3],
		})
	}
	table(r.W, rows)
	return nil
}

// fig4Paper: values read off Figure 4 (block size 4096).
var fig4Paper = map[int][4]float64{
	// mesh side: {FH cong, AT4 cong, FH time, AT4 time}
	4:  {5.52, 3.87, 2.79, 2.77},
	8:  {12.25, 5.56, 6.21, 3.78},
	16: {24.52, 6.55, 10.32, 4.50},
	32: {47.98, 8.10, 19.90, 5.67},
}

// Fig4 reproduces Figure 4: matrix multiplication with a fixed block size,
// scaling the network from 4×4 to 32×32.
func (r *Runner) Fig4() error {
	block := 4096
	sides := []int{4, 8, 16, 32}
	if r.Quick {
		block = 1024
		sides = []int{4, 8, 16}
	}
	r.header(fmt.Sprintf("Figure 4: matrix multiplication with block size %d (ratios vs hand-optimized)", block))

	fh, at := fhFactory(), atFactory()
	cells, err := runRatioCells(r, len(sides), func(row, kind int) (mmPoint, error) {
		switch kind {
		case 0:
			return r.runMatmul(sides[row], block, nil, decomp.Ary2)
		case 1:
			return r.runMatmul(sides[row], block, fh, decomp.Ary4)
		default:
			return r.runMatmul(sides[row], block, at, decomp.Ary4)
		}
	})
	if err != nil {
		return err
	}

	rows := [][]string{{"mesh", "congFH", "congAT4", "AT/FH", "timeFH", "timeAT4", "AT/FH", "", "paper(4096): congFH", "congAT4", "timeFH", "timeAT4"}}
	for i, side := range sides {
		c := cells[i]
		congFH := float64(c.fh.congBytes) / float64(c.hand.congBytes)
		congAT := float64(c.at.congBytes) / float64(c.hand.congBytes)
		timeFH := c.fh.timeUS / c.hand.timeUS
		timeAT := c.at.timeUS / c.hand.timeUS
		p := fig4Paper[side]
		rows = append(rows, []string{
			fmt.Sprintf("%dx%d", side, side),
			f2(congFH), f2(congAT), pct(congAT / congFH),
			f2(timeFH), f2(timeAT), pct(timeAT / timeFH),
			"|", f2(p[0]), f2(p[1]), f2(p[2]), f2(p[3]),
		})
	}
	table(r.W, rows)
	fmt.Fprintln(r.W, "\nExpected shape: FH congestion ratio grows ~sqrt(P); AT ratio grows ~log(P);")
	fmt.Fprintln(r.W, "the access tree advantage increases with the network size.")
	return nil
}
