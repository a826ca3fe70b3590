package core_test

import (
	"fmt"
	"testing"

	"diva/internal/apps/barneshut"
	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/decomp"
	"diva/internal/metrics"
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

// warmedMachine returns an 8×8 4-ary access-tree machine after two steps
// of Barnes-Hut on 600 bodies.
func warmedMachine(tb testing.TB) *core.Machine {
	tb.Helper()
	m := core.MustNewMachine(core.Config{Rows: 8, Cols: 8, Seed: 1, Tree: decomp.Ary4, Strategy: accesstree.Factory()})
	if _, err := barneshut.Run(m, barneshut.Config{N: 600, Steps: 2, Seed: 5}, metrics.New(m.Net)); err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkFork is the per-request cost of the service's isolation: one
// Fork of a birth snapshot, per machine size, and one of a snapshot of an
// 8×8 machine warmed by Barnes-Hut (warm8).
func BenchmarkFork(b *testing.B) {
	run := func(b *testing.B, snap *core.Snapshot) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := snap.Fork(core.ForkOptions{})
			if err != nil {
				b.Fatal(err)
			}
			benchSink = m
		}
	}
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("mesh%d", n), func(b *testing.B) { run(b, birthSnapshot(b, n)) })
	}
	b.Run("warm8", func(b *testing.B) {
		snap, err := warmedMachine(b).Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		run(b, snap)
	})
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
