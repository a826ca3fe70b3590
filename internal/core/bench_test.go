package core_test

import (
	"fmt"
	"testing"

	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/decomp"
	"diva/topology"
)

// benchSink keeps the measured machines reachable so the compiler cannot
// drop the calls.
var benchSink *core.Machine

// birthSnapshot builds an n×n 4-ary access-tree machine and snapshots it
// before any process ran — what the service forks every request from.
func birthSnapshot(tb testing.TB, n int) *core.Snapshot {
	tb.Helper()
	m := core.MustNewMachine(core.Config{Rows: n, Cols: n, Seed: 1, Tree: decomp.Ary4, Strategy: accesstree.Factory()})
	snap, err := m.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// BenchmarkFork is the per-request cost of the service's isolation: one
// Fork of a birth snapshot, per machine size.
func BenchmarkFork(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("mesh%d", n), func(b *testing.B) {
			snap := birthSnapshot(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := snap.Fork(core.ForkOptions{})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = m
			}
		})
	}
}

// BenchmarkBuild is a fresh 16×16 machine by registry topology name: the
// build a snapshot-cache miss pays on the request path. The first
// iteration of a process is cold — registry builder (a graph's BFS
// tables), tree, plan — which is what -benchtime 1x records; every later
// one finds the plan, which is what a long run averages to.
func BenchmarkBuild(b *testing.B) {
	for _, name := range []string{"mesh", "graph:regular", "graph:er", "graph:degraded"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				topo, err := topology.Build(name, 16, 16)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = core.MustNewMachine(core.Config{Topology: topo, Seed: 1, Tree: decomp.Ary4, Strategy: accesstree.Factory()})
			}
		})
	}
}
