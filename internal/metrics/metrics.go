// Package metrics collects the two quantities the paper evaluates —
// congestion (the maximum traffic across any network link) and execution
// time — with optional phase scoping (the Barnes-Hut figures report the
// tree-building and force-computation phases separately) and warmup
// exclusion (the paper simulates 7 time steps and measures the last 5).
package metrics

import (
	"fmt"
	"sort"

	"diva/internal/mesh"
	"diva/internal/sim"
)

// Result summarizes one measured interval (or the union of the intervals
// accumulated under one phase name).
type Result struct {
	Cong mesh.Congestion
	// TimeUS is the summed wall-clock duration of the interval(s).
	TimeUS float64
	// MaxComputeUS is the maximum per-node application compute time inside
	// the interval(s) — the paper's "local computation time".
	MaxComputeUS float64
	// TotalComputeUS sums compute over all nodes.
	TotalComputeUS float64
	// Faults holds the degradation counters accumulated since Baseline
	// (availability, re-route stretch, recovery traffic); all zero on a
	// fault-free machine. Only Total fills it — phase scoping of fault
	// counters is not supported.
	Faults mesh.FaultStats
}

// Collector accumulates per-link traffic deltas. Before Baseline is called
// every recording method is a no-op, which makes warmup rounds trivial to
// exclude: run them, call Baseline, keep going.
type Collector struct {
	nw      *mesh.Network
	enabled bool

	baseLoads   []mesh.LinkLoad
	baseTime    sim.Time
	baseCompute []float64
	baseFaults  mesh.FaultStats

	phaseOpen    bool
	phaseLoads   []mesh.LinkLoad
	phaseTime    sim.Time
	phaseCompute []float64

	phases map[string]*phaseAcc
	order  []string

	// nowLoads/nowCompute are EndPhase's and Total's reading of the
	// counters, reused call after call.
	nowLoads   []mesh.LinkLoad
	nowCompute []float64
}

type phaseAcc struct {
	links   []mesh.LinkLoad
	timeUS  float64
	compute []float64
}

// New returns a collector for the network. It starts disabled.
func New(nw *mesh.Network) *Collector {
	return &Collector{nw: nw, phases: make(map[string]*phaseAcc)}
}

// Enabled reports whether Baseline has been called.
func (c *Collector) Enabled() bool { return c.enabled }

// Baseline starts measurement: everything before this call (warmup) is
// excluded from Total and from phases.
func (c *Collector) Baseline() {
	c.enabled = true
	c.baseLoads = c.nw.AppendLoads(c.baseLoads[:0])
	c.baseTime = c.nw.K.Now()
	c.baseCompute = c.nw.AppendComputeTime(c.baseCompute[:0])
	c.baseFaults = c.nw.FaultStats()
}

// StartPhase opens a phase interval. No-op before Baseline. Phases must not
// nest.
func (c *Collector) StartPhase() {
	if !c.enabled {
		return
	}
	if c.phaseOpen {
		panic("metrics: StartPhase while a phase is open")
	}
	c.phaseOpen = true
	c.phaseLoads = c.nw.AppendLoads(c.phaseLoads[:0])
	c.phaseTime = c.nw.K.Now()
	c.phaseCompute = c.nw.AppendComputeTime(c.phaseCompute[:0])
}

// EndPhase closes the open interval and accumulates it under name. Calling
// EndPhase for the same name across several rounds sums the intervals
// (per-link, so phase congestion is the max over links of the summed
// traffic, as in the paper).
func (c *Collector) EndPhase(name string) {
	if !c.enabled {
		return
	}
	if !c.phaseOpen {
		panic("metrics: EndPhase without StartPhase")
	}
	c.phaseOpen = false
	acc := c.phases[name]
	if acc == nil {
		acc = &phaseAcc{
			links:   make([]mesh.LinkLoad, len(c.phaseLoads)),
			compute: make([]float64, len(c.phaseCompute)),
		}
		c.phases[name] = acc
		c.order = append(c.order, name)
	}
	c.nowLoads = c.nw.AppendLoads(c.nowLoads[:0])
	now := c.nowLoads
	for i := range now {
		acc.links[i].Msgs += now[i].Msgs - c.phaseLoads[i].Msgs
		acc.links[i].Bytes += now[i].Bytes - c.phaseLoads[i].Bytes
	}
	acc.timeUS += c.nw.K.Now() - c.phaseTime
	c.nowCompute = c.nw.AppendComputeTime(c.nowCompute[:0])
	comp := c.nowCompute
	for i := range comp {
		acc.compute[i] += comp[i] - c.phaseCompute[i]
	}
}

// Total returns the metrics accumulated since Baseline.
func (c *Collector) Total() Result {
	if !c.enabled {
		panic("metrics: Total before Baseline")
	}
	r := Result{
		Cong:   c.nw.Congestion(c.baseLoads),
		TimeUS: c.nw.K.Now() - c.baseTime,
		Faults: c.nw.FaultStats().Sub(c.baseFaults),
	}
	c.nowCompute = c.nw.AppendComputeTime(c.nowCompute[:0])
	comp := c.nowCompute
	for i := range comp {
		d := comp[i] - c.baseCompute[i]
		r.TotalComputeUS += d
		if d > r.MaxComputeUS {
			r.MaxComputeUS = d
		}
	}
	return r
}

// Phase returns the accumulated result for a phase name.
func (c *Collector) Phase(name string) (Result, bool) {
	acc, ok := c.phases[name]
	if !ok {
		return Result{}, false
	}
	var r Result
	r.TimeUS = acc.timeUS
	for i := range acc.links {
		l := acc.links[i]
		if l.Msgs > r.Cong.MaxMsgs {
			r.Cong.MaxMsgs = l.Msgs
		}
		if l.Bytes > r.Cong.MaxBytes {
			r.Cong.MaxBytes = l.Bytes
		}
		r.Cong.TotalMsgs += l.Msgs
		r.Cong.TotalBytes += l.Bytes
	}
	for _, d := range acc.compute {
		r.TotalComputeUS += d
		if d > r.MaxComputeUS {
			r.MaxComputeUS = d
		}
	}
	return r, true
}

// PhaseNames returns the phase names in first-use order.
func (c *Collector) PhaseNames() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// String gives a compact one-line summary of a result.
func (r Result) String() string {
	return fmt.Sprintf("time=%.0fus congestion=%d msgs / %d bytes (total %d/%d) compute(max)=%.0fus",
		r.TimeUS, r.Cong.MaxMsgs, r.Cong.MaxBytes, r.Cong.TotalMsgs, r.Cong.TotalBytes, r.MaxComputeUS)
}

// HeatmapMsgs renders per-link message counts as a coarse ASCII heatmap of
// horizontal link loads (used by the Figure 2 demo). Each cell shows the
// decile (0-9) of the busier direction of the horizontal link to the cell's
// right.
func HeatmapMsgs(m mesh.Mesh, loads []mesh.LinkLoad, before []mesh.LinkLoad) string {
	var max uint64
	val := func(node int, d mesh.Dir) uint64 {
		li := m.LinkID(node, d)
		v := loads[li].Bytes
		if before != nil {
			v -= before[li].Bytes
		}
		return v
	}
	for n := 0; n < m.N(); n++ {
		for _, d := range []mesh.Dir{mesh.East, mesh.West, mesh.South, mesh.North} {
			if m.HasLink(n, d) && val(n, d) > max {
				max = val(n, d)
			}
		}
	}
	if max == 0 {
		max = 1
	}
	out := ""
	for r := 0; r < m.Rows; r++ {
		row := ""
		for col := 0; col+1 < m.Cols; col++ {
			n := m.ID(mesh.Coord{Row: r, Col: col})
			e := val(n, mesh.East)
			w := val(m.Neighbor(n, mesh.East), mesh.West)
			v := e
			if w > v {
				v = w
			}
			row += fmt.Sprintf("%d", v*9/max)
		}
		out += row + "\n"
	}
	return out
}

// TopLinks lists the k busiest directed links by bytes (diagnostics).
func TopLinks(m mesh.Mesh, loads []mesh.LinkLoad, k int) []string {
	type entry struct {
		li    int
		bytes uint64
	}
	var es []entry
	for li := range loads {
		n, d := m.LinkOf(li)
		if m.HasLink(n, d) && loads[li].Bytes > 0 {
			es = append(es, entry{li, loads[li].Bytes})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].bytes != es[j].bytes {
			return es[i].bytes > es[j].bytes
		}
		return es[i].li < es[j].li
	})
	if len(es) > k {
		es = es[:k]
	}
	out := make([]string, len(es))
	for i, e := range es {
		n, d := m.LinkOf(e.li)
		c := m.CoordOf(n)
		out[i] = fmt.Sprintf("(%d,%d)->%s: %d bytes, %d msgs", c.Row, c.Col, d, e.bytes, loads[e.li].Msgs)
	}
	return out
}
