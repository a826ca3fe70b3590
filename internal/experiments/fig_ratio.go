package experiments

import (
	"fmt"
	"io"

	"diva/spec"
)

// A ratioStudy is one of the paper's ratio figures (3, 4, 6, 7): the
// hand-optimized message passing program, the fixed home and an access
// tree on the same workload, one row per x-value, each strategy's
// congestion (bytes) and time reported relative to the hand-optimized run.
type ratioStudy struct {
	title string // the header; %[1]d is the fixed mesh side or workload size
	app   string // "matmul" or "bitonic"
	// scaling: x is the mesh side at a fixed workload size (Figures 4, 7);
	// otherwise x is the workload size on a fixed mesh (Figures 3, 6).
	scaling           bool
	fixed, quickFixed int
	xs, quickXs       []int
	xName             string // the x column's title
	fhTree            string // the fixed home's tree; "" keeps its registered one
	at, atCol         string // the access tree strategy and its column suffix
	paperAt           string // the paper values' setting, for their column titles
	paper             map[int][4]float64
	note              string // printed after the table
}

// Figure 3: matrix multiplication on a 16×16 mesh, ratios versus block
// size, for the fixed home and the 4-ary access tree.
var fig3 = ratioStudy{
	title: "Figure 3: matrix multiplication on a %[1]dx%[1]d mesh (ratios vs hand-optimized)",
	app:   "matmul",
	fixed: 16, quickFixed: 8,
	xs: []int{64, 256, 1024, 4096}, quickXs: []int{64, 256, 1024},
	xName: "block",
	at:    "at4", atCol: "AT4",
	paperAt: "16x16",
	// block: {FH cong ratio, AT4 cong ratio, FH time ratio, AT4 time ratio}
	paper: map[int][4]float64{
		64:   {33.32, 9.25, 13.83, 7.54},
		256:  {26.61, 7.19, 11.89, 6.08},
		1024: {24.94, 6.67, 10.71, 4.93},
		4096: {24.52, 6.55, 10.32, 4.50},
	},
}

// Figure 4: matrix multiplication with a fixed block size, scaling the
// network from 4×4 to 32×32.
var fig4 = ratioStudy{
	title:   "Figure 4: matrix multiplication with block size %d (ratios vs hand-optimized)",
	app:     "matmul",
	scaling: true,
	fixed:   4096, quickFixed: 1024,
	xs: []int{4, 8, 16, 32}, quickXs: []int{4, 8, 16},
	xName: "mesh",
	at:    "at4", atCol: "AT4",
	paperAt: "4096",
	// mesh side: {FH cong, AT4 cong, FH time, AT4 time}
	paper: map[int][4]float64{
		4:  {5.52, 3.87, 2.79, 2.77},
		8:  {12.25, 5.56, 6.21, 3.78},
		16: {24.52, 6.55, 10.32, 4.50},
		32: {47.98, 8.10, 19.90, 5.67},
	},
	note: "\nExpected shape: FH congestion ratio grows ~sqrt(P); AT ratio grows ~log(P);\n" +
		"the access tree advantage increases with the network size.\n",
}

// Figure 6: bitonic sorting on a 16×16 mesh, ratios versus keys per
// processor, for the fixed home and the 2-4-ary access tree. The paper
// reports execution time: local computation is very limited, and the
// compare/merge costs are charged.
var fig6 = ratioStudy{
	title: "Figure 6: bitonic sorting on a %[1]dx%[1]d mesh (ratios vs hand-optimized)",
	app:   "bitonic",
	fixed: 16, quickFixed: 8,
	xs: []int{256, 1024, 4096, 16384}, quickXs: []int{256, 1024, 4096},
	xName:  "keys",
	fhTree: "2-ary",
	at:     "at2k4", atCol: "AT24",
	paperAt: "16x16",
	// keys: {FH cong, AT cong, FH time, AT time}
	paper: map[int][4]float64{
		256:   {8.11, 2.95, 6.00, 4.11},
		1024:  {7.26, 2.72, 6.01, 3.41},
		4096:  {7.07, 2.76, 6.09, 3.06},
		16384: {7.07, 2.75, 5.86, 2.83},
	},
}

// Figure 7: bitonic sorting with 4096 keys per processor, scaling the
// network from 4×4 to 32×32. The paper's analysis: the FH congestion
// ratio grows like log²P; the AT ratio converges to ≈3.
var fig7 = ratioStudy{
	title:   "Figure 7: bitonic sorting with %d keys per processor (ratios vs hand-optimized)",
	app:     "bitonic",
	scaling: true,
	fixed:   4096, quickFixed: 1024,
	xs: []int{4, 8, 16, 32}, quickXs: []int{4, 8, 16},
	xName:  "mesh",
	fhTree: "2-ary",
	at:     "at2k4", atCol: "AT24",
	paperAt: "4096",
	// side: {FH cong, AT cong, FH time, AT time}
	paper: map[int][4]float64{
		4:  {2.81, 2.08, 2.46, 2.03},
		8:  {4.74, 2.23, 4.57, 2.76},
		16: {7.03, 2.76, 6.11, 3.06},
		32: {10.48, 2.90, 7.61, 3.07},
	},
}

// ratioCells returns the hand-optimized, fixed home and access tree cells
// of one ratio-figure point.
func (s ratioStudy) ratioCells(seed uint64, side, size int) [3]cell {
	w := spec.Workload{Name: s.app}
	if s.app == "matmul" {
		w.Block = size
	} else {
		w.Keys, w.Compute = size, true
	}
	hand := spec.Spec{Rows: side, Cols: side, Seed: seed, Workload: w}
	hand.Workload.Name += "-handopt"
	fh := spec.Spec{Rows: side, Cols: side, Strategy: "fixedhome", Tree: s.fhTree, Seed: seed, Workload: w}
	at := spec.Spec{Rows: side, Cols: side, Strategy: s.at, Seed: seed, Workload: w}
	return [3]cell{{spec: hand}, {spec: fh}, {spec: at}}
}

// ratioFigure describes a ratio study as a figure.
func ratioFigure(s ratioStudy) func(*Runner) figure {
	return func(r *Runner) figure {
		fixed, xs := s.fixed, s.xs
		if r.Quick {
			fixed, xs = s.quickFixed, s.quickXs
		}
		var cells []cell
		for _, x := range xs {
			side, size := fixed, x
			if s.scaling {
				side, size = x, fixed
			}
			c := s.ratioCells(r.Seed, side, size)
			cells = append(cells, c[:]...)
		}
		return figure{cells: cells, print: func(w io.Writer, res []result) error {
			header(w, fmt.Sprintf(s.title, fixed))
			rows := [][]string{{s.xName, "congFH", "cong" + s.atCol, "AT/FH", "timeFH", "time" + s.atCol, "AT/FH",
				"", "paper(" + s.paperAt + "): congFH", "cong" + s.atCol, "timeFH", "time" + s.atCol}}
			for i, x := range xs {
				hand, fh, at := res[3*i], res[3*i+1], res[3*i+2]
				congFH := float64(fh.cong.MaxBytes) / float64(hand.cong.MaxBytes)
				congAT := float64(at.cong.MaxBytes) / float64(hand.cong.MaxBytes)
				timeFH := fh.elapsedUS / hand.elapsedUS
				timeAT := at.elapsedUS / hand.elapsedUS
				label := fmt.Sprint(x)
				if s.scaling {
					label = fmt.Sprintf("%dx%d", x, x)
				}
				paper := []string{"", "", "", ""}
				if p, ok := s.paper[x]; ok {
					paper = []string{f2(p[0]), f2(p[1]), f2(p[2]), f2(p[3])}
				}
				rows = append(rows, []string{
					label,
					f2(congFH), f2(congAT), pct(congAT / congFH),
					f2(timeFH), f2(timeAT), pct(timeAT / timeFH),
					"|", paper[0], paper[1], paper[2], paper[3],
				})
			}
			table(w, rows)
			fmt.Fprint(w, s.note)
			return nil
		}}
	}
}
