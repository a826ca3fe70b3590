package main

import (
	"fmt"

	"diva/spec"
)

// The four workloads, in the order BENCHMARK.json lists them.
const (
	wlFigures = "figures-dsm"
	wlServe   = "serve-fork"
	wlWarm    = "warm-state"
	wlFaults  = "faults-recovery"
)

var workloadNames = []string{wlFigures, wlServe, wlWarm, wlFaults}

// A cell is one distinct run description of a workload. Its name is the
// stem of its key in reference.json.
type cell struct {
	name string
	spec spec.Spec
}

// deckVariants is how many machine seeds each deck cell exists under
// (deckSeed0, deckSeed0+1, ...). The benchmark seed draws one variant per
// cell and pass, so the inputs follow --seed while reference.json stays
// finite. Variant 0 is the machine seed the repo's goldens pin.
const (
	deckVariants = 4
	deckSeed0    = 1999
)

func matmul(block int, seed uint64) spec.Workload {
	return spec.Workload{Name: "matmul", Block: block, Seed: seed}
}

func bitonic(keys int, seed uint64) spec.Workload {
	return spec.Workload{Name: "bitonic", Keys: keys, Compute: true, Seed: seed}
}

func barnesHut(bodies, steps int, seed uint64) spec.Workload {
	return spec.Workload{Name: "barneshut", Bodies: bodies, Steps: steps, MeasureFrom: 1, Seed: seed}
}

// figuresCells are the paper's own figure cells with the workload
// parameters of the root bench_test.go: sim, mesh and the two strategies
// do >99% of the work, so a kernel, hop or protocol change shows here and
// a serve or snapshot change must not.
var figuresCells = []cell{
	{"fig3-at4", spec.Spec{Rows: 16, Cols: 16, Strategy: "at4", Workload: matmul(256, 1)}},
	{"fig3-fixedhome", spec.Spec{Rows: 16, Cols: 16, Strategy: "fixedhome", Workload: matmul(256, 1)}},
	{"fig4-at4", spec.Spec{Rows: 32, Cols: 32, Strategy: "at4", Workload: matmul(256, 1)}},
	{"fig6-fixedhome", spec.Spec{Rows: 8, Cols: 8, Strategy: "fixedhome", Tree: "2-ary", Workload: bitonic(1024, 2)}},
	{"fig7-at2k4", spec.Spec{Rows: 16, Cols: 16, Strategy: "at2k4", Workload: bitonic(1024, 2)}},
	{"fig8-at4", spec.Spec{Rows: 8, Cols: 8, Strategy: "at4", Workload: fig8BarnesHut}},
	{"fig8-at2", spec.Spec{Rows: 8, Cols: 8, Strategy: "at2", Workload: fig8BarnesHut}},
	{"fig8-fixedhome", spec.Spec{Rows: 8, Cols: 8, Strategy: "fixedhome", Workload: fig8BarnesHut}},
}

var fig8BarnesHut = spec.Workload{Name: "barneshut", Bodies: 1500, Steps: 4, MeasureFrom: 2, Seed: 3}

// faultsCells use the same mesh and sim layers as figuresCells the other
// way: the timer tier, fault decisions, spanning-forest re-routing, the
// ack/dedup transport and BFS route tables carry these cells and carry
// nothing in figures-dsm (zero retransmits there).
var faultsCells = func() []cell {
	drawn := func(links, churn int) *spec.Fault {
		return &spec.Fault{LinkFailures: links, NodeChurn: churn, MeanDownUS: 20000, HorizonUS: 100000}
	}
	reactive := func(s spec.Spec, ackUS float64, retries int) spec.Spec {
		s.Recovery, s.AckTimeoutUS, s.MaxRetries = spec.RecoveryReactive, ackUS, retries
		return s
	}
	mm := spec.Workload{Name: "matmul", Block: 256}
	bh := spec.Workload{Name: "barneshut", Bodies: 600, Steps: 4, MeasureFrom: 2}
	degraded := spec.Spec{Topology: "graph:degraded", Rows: 8, Cols: 8, Fault: drawn(4, 1), Workload: mm}
	at4, fh := degraded, degraded
	at4.Strategy, fh.Strategy = "at4", "fixedhome"
	healthy := spec.Spec{Rows: 8, Cols: 8, Strategy: "at4", Workload: mm}
	return []cell{
		// Variant 0 is the repo's fault golden 0xf3461460b6586779.
		{"degraded-at4-oracle", at4},
		{"degraded-fixedhome-reactive", reactive(fh, 500, 3)},
		// Acks always win the race: pure ack traffic plus timer arm/cancel.
		{"mesh-at4-reactive-steady", reactive(healthy, 5000, 5)},
		// Every message times out and is retransmitted. 1000 retries means
		// the transport never gives up: with the default 5 the access tree's
		// re-issue path livelocks at HEAD (see README, exclusions).
		{"mesh-at4-reactive-storm", reactive(healthy, 300, 1000)},
		{"regular-at4-barneshut", spec.Spec{Topology: "graph:regular", Rows: 8, Cols: 8, Strategy: "at4", Fault: drawn(6, 2), Workload: bh}},
		{"er-fixedhome-reactive", reactive(spec.Spec{Topology: "graph:er", Rows: 8, Cols: 8, Strategy: "fixedhome", Fault: drawn(4, 1), Workload: mm}, 500, 3)},
		{"torus-at4-barneshut", spec.Spec{Topology: "torus", Rows: 4, Cols: 4, Strategy: "at4", Workload: bh}},
		{"hypercube-at4-barneshut", spec.Spec{Topology: "hypercube", Rows: 4, Cols: 4, Strategy: "at4", Workload: bh}},
		{"fattree-at4-barneshut", spec.Spec{Topology: "fattree", Rows: 4, Cols: 4, Strategy: "at4", Workload: bh}},
	}
}()

// variant returns c under machine seed deckSeed0+v and its reference key.
func (c cell) variant(workload string, v int) (spec.Spec, string) {
	s := c.spec
	s.Seed = deckSeed0 + uint64(v)
	return s, fmt.Sprintf("%s/%s#%d", workload, c.name, v)
}

// serveCells is the request mix of serve-fork: runs so small that JSON
// decode, validation, the cache lookup, Fork, process start-up and the
// indented JSON encode are a visible share of every request. Six machine
// descriptions fit the server's snapshot cache of eight, so after warm-up
// every request forks.
//
// weight is the percentage of requests. The three light cells are drawn
// by weight from the seed. The three heavy cells cost 8 to 40 times the
// median request, so a binomial draw of their count would be the largest
// noise term in ops_per_s: they appear at exactly their share, at
// positions drawn from the seed.
var serveCells = []struct {
	cell
	weight int
	exact  bool
}{
	{cell{"mesh4-at4-matmul16", spec.Spec{Rows: 4, Cols: 4, Strategy: "at4", Seed: 1, Workload: matmul(16, 1)}}, 50, false},
	{cell{"mesh4-fixedhome-bitonic16", spec.Spec{Rows: 4, Cols: 4, Strategy: "fixedhome", Seed: 1, Workload: bitonic(16, 2)}}, 25, false},
	{cell{"torus4-at2-matmul16", spec.Spec{Topology: "torus", Rows: 4, Cols: 4, Strategy: "at2", Seed: 1, Workload: matmul(16, 1)}}, 15, false},
	{cell{"mesh8-at4-matmul64", spec.Spec{Rows: 8, Cols: 8, Strategy: "at4", Seed: 1, Workload: matmul(64, 1)}}, 7, true},
	// Hand-optimized stencil, one iteration: 256 and 1024 process starts
	// around a handful of events, and the most expensive forks of the mix.
	{cell{"mesh16-handopt-stencil1", spec.Spec{Rows: 16, Cols: 16, Seed: 1, Workload: stencil1}}, 2, true},
	{cell{"mesh32-handopt-stencil1", spec.Spec{Rows: 32, Cols: 32, Seed: 1, Workload: stencil1}}, 1, true},
}

var stencil1 = spec.Workload{Name: "stencil", Iters: 1, Compute: true, Seed: 7}

// warm-state: the write and cold side of snapshot/fork.
const (
	// warmPool bounds the distinct warmed machines one run may create
	// (machine seeds warmSeed0 ...); reference.json holds one entry pair
	// per pool seed.
	warmPool  = 96
	warmSeed0 = 100
	// warmWorkingSet handles are reloaded round-robin against a snapshot
	// cache of serveSnapshotCache, so every load-run reads its file back.
	warmWorkingSet = 12
	warmResident   = 4
)

// warmSpec is the machine + warm-up workload POSTed to /v1/snapshots.
func warmSpec(seed uint64) spec.Spec {
	return spec.Spec{Rows: 8, Cols: 8, Strategy: "at4", Seed: seed, Workload: barnesHut(600, 2, seed)}
}

// warmQuery is the workload run on forks of a warmed machine.
var warmQuery = matmul(16, 1)

// warmMissCells are twelve machine descriptions requested round-robin
// through plain /v1/run: more than the snapshot cache holds, so
// MachineFromSpec and Snapshot sit on the request path of every one. The
// graph topologies build BFS route tables (about 4 ms at 256 nodes) and
// the workload is one stencil iteration (about 6 ms), so the build is a
// third of the op.
var warmMissCells = func() []cell {
	var cells []cell
	for _, topo := range []string{"mesh", "graph:regular", "graph:er", "graph:degraded"} {
		for seed := uint64(1); seed <= 3; seed++ {
			cells = append(cells, cell{
				fmt.Sprintf("miss-%s-%d", topo, seed),
				spec.Spec{Topology: topo, Rows: 16, Cols: 16, Seed: seed, Workload: stencil1},
			})
		}
	}
	return cells
}()
