package main

import (
	"fmt"
	"time"

	"diva/internal/core"
	"diva/internal/core/accesstree"
	"diva/internal/core/fixedhome"
	"diva/internal/decomp"
	"diva/internal/mesh"
	"diva/internal/sim"
)

// A probe is a fixed-iteration micro-run of one public entry point of one
// layer: the unit cost the per-layer model multiplies the traced counts
// by. Iteration counts are fixed, not durations, so two commits run the
// same work; each is sized to a few tenths of a second on the recorded
// host.
type probe struct {
	metric string        // per-layer metric name; its suffix is the unit
	unit   time.Duration // of the reported per-iteration cost
	iters  int
	run    func(n int) (time.Duration, error) // host time of n iterations
}

var probes = []probe{
	{"core.read_local_ns", time.Nanosecond, 2_000_000, probeReadLocal},
	{"core.barrier_us", time.Microsecond, 20_000, probeBarrier},
	{"core.spawn_us_p1024", time.Microsecond, 100, probeSpawn},
	{"accesstree.read_remote_us", time.Microsecond, 10_000, probeRemoteRead(accesstree.Factory())},
	{"accesstree.lock_handoff_us", time.Microsecond, 200_000, probeLockHandoff},
	{"fixedhome.read_remote_us", time.Microsecond, 10_000, probeRemoteRead(fixedhome.Factory())},
	{"mesh.hop_ns", time.Nanosecond, 1_000_000, probePingPong(func() (mesh.Topology, int, int) { return mesh.New(1, 2), 0, 1 }, nil)},
	{"mesh.delivery_ns", time.Nanosecond, 1_000_000, probePingPong(func() (mesh.Topology, int, int) { return mesh.New(4, 4), 0, 15 }, nil)},
	{"mesh.graph_route_ns", time.Nanosecond, 500_000, probePingPong(farPairOnGraph, nil)},
	{"mesh.graph_reroute_ns", time.Nanosecond, 200_000, probePingPong(farPairOnGraph, firstLinkDown)},
	{"mesh.reactive_steady_ns", time.Nanosecond, 300_000, probePingPong(cornersOfMesh8, reactive(5000))},
	{"mesh.reactive_storm_ns", time.Nanosecond, 100_000, probePingPong(cornersOfMesh8, reactive(100))},
	{"sim.queue_ns_256", time.Nanosecond, 2_000_000, probeQueue(256)},
	{"sim.queue_ns_65536", time.Nanosecond, 2_000_000, probeQueue(65536)},
	{"sim.switch_ns_pinned", time.Nanosecond, 500_000, probeSwitch(true)},
	{"sim.switch_ns_concurrent", time.Nanosecond, 200_000, probeSwitch(false)},
	{"sim.timer_ns", time.Nanosecond, 2_000_000, probeTimer},
}

// runProbes runs every probe once and returns the per-iteration costs by
// metric name. A positive limit caps the iterations of each.
func runProbes(limit int) (map[string]float64, error) {
	out := make(map[string]float64, len(probes))
	for _, p := range probes {
		n := p.iters
		if limit > 0 {
			n = min(n, limit)
		}
		d, err := p.run(n)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.metric, err)
		}
		out[p.metric] = float64(d) / float64(p.unit) / float64(n)
	}
	return out, nil
}

func probeMachine(rows, cols int, f core.Factory) (*core.Machine, error) {
	return core.NewMachine(core.Config{Rows: rows, Cols: cols, Seed: deckSeed0, Tree: decomp.Ary4, Strategy: f})
}

// probeReadLocal: reading a variable whose copy is already local, the 99%
// case of the Barnes-Hut force phase.
func probeReadLocal(n int) (time.Duration, error) {
	m, err := probeMachine(4, 4, accesstree.Factory())
	if err != nil {
		return 0, err
	}
	v := m.AllocAt(0, 64, 1)
	var d time.Duration
	err = m.Run(func(p *core.Proc) {
		if p.ID != 0 {
			return
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			_ = p.Read(v)
		}
		d = time.Since(start)
	})
	return d, err
}

// probeBarrier: one full tree barrier on 64 processors.
func probeBarrier(n int) (time.Duration, error) {
	m, err := probeMachine(8, 8, accesstree.Factory())
	if err != nil {
		return 0, err
	}
	start := time.Now()
	err = m.Run(func(p *core.Proc) {
		for i := 0; i < n; i++ {
			p.Barrier()
		}
	})
	return time.Since(start), err
}

// probeSpawn: Machine.Run of an empty program on 32x32 — 1024 process
// starts and exits, what every request on a large machine pays before its
// first useful event.
func probeSpawn(n int) (time.Duration, error) {
	m, err := core.NewMachine(core.Config{Rows: 32, Cols: 32, Seed: deckSeed0, Tree: decomp.Ary2})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := m.Run(func(*core.Proc) {}); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// probeRemoteRead: a full remote read transaction corner to corner on a
// 4x4 mesh, the copy invalidated by a write between reads so every read
// misses. An iteration includes that write and two barriers.
func probeRemoteRead(f core.Factory) func(int) (time.Duration, error) {
	return func(n int) (time.Duration, error) {
		m, err := probeMachine(4, 4, f)
		if err != nil {
			return 0, err
		}
		v := m.AllocAt(0, 1024, 1)
		start := time.Now()
		err = m.Run(func(p *core.Proc) {
			for i := 0; i < n; i++ {
				if p.ID == 0 {
					p.Write(v, i)
				}
				p.Barrier()
				if p.ID == 15 {
					_ = p.Read(v)
				}
				p.Barrier()
			}
		})
		return time.Since(start), err
	}
}

// probeLockHandoff: the arrow-protocol lock, two corner processors taking
// it in local streaks with a token migration when the other takes over.
func probeLockHandoff(n int) (time.Duration, error) {
	m, err := probeMachine(4, 4, accesstree.Factory())
	if err != nil {
		return 0, err
	}
	v := m.AllocAt(0, 16, nil)
	start := time.Now()
	err = m.Run(func(p *core.Proc) {
		if p.ID != 0 && p.ID != 15 {
			return
		}
		for i := 0; i < n/2; i++ {
			p.Lock(v)
			p.Unlock(v)
		}
	})
	return time.Since(start), err
}

func farPairOnGraph() (mesh.Topology, int, int) {
	g, err := mesh.NewRandomRegular(64, 4, deckSeed0)
	if err != nil {
		panic(err) // fixed arguments
	}
	src, dst := 0, 1
	for v := range g.N() {
		if g.Dist(src, v) > g.Dist(src, dst) {
			dst = v
		}
	}
	return g, src, dst
}

func cornersOfMesh8() (mesh.Topology, int, int) { return mesh.New(8, 8), 0, 63 }

// firstLinkDown takes the first link of the src→dst route down for the
// whole run, so every message pays the fault decision and routes over the
// live spanning forest.
func firstLinkDown(nw *mesh.Network, t mesh.Topology, src, dst int) error {
	ends := map[int]int{}
	t.ForEachLink(func(link, from, to int) { ends[link] = to })
	first := ends[t.AppendRoute(nil, src, dst)[0]]
	return nw.InstallFaults(mesh.FaultSchedule{
		{AtUS: 0, Kind: mesh.FaultLinkDown, A: src, B: first},
		{AtUS: 1e15, Kind: mesh.FaultLinkUp, A: src, B: first},
	})
}

// reactive turns on the ack/retransmit transport. An ack timeout above the
// round trip makes the timer pure arm/cancel overhead; one below it makes
// every message a retransmission and a duplicate drop.
func reactive(ackUS float64) func(*mesh.Network, mesh.Topology, int, int) error {
	return func(nw *mesh.Network, _ mesh.Topology, _, _ int) error {
		return nw.EnableReactive(mesh.ReactParams{AckTimeoutUS: ackUS, MaxRetries: 1 << 20, Backoff: 2}, deckSeed0)
	}
}

// probePingPong: n messages bounced between two nodes through the pooled
// send-route-deliver path, nothing else on the kernel.
func probePingPong(topo func() (mesh.Topology, int, int), prepare func(*mesh.Network, mesh.Topology, int, int) error) func(int) (time.Duration, error) {
	return func(n int) (time.Duration, error) {
		t, src, dst := topo()
		k := sim.New()
		nw := mesh.NewNetwork(k, t, mesh.GCelParams())
		if prepare != nil {
			if err := prepare(nw, t, src, dst); err != nil {
				return 0, err
			}
		}
		const kind = 7
		seen := 0
		nw.Handle(kind, func(m *mesh.Msg) {
			if seen++; seen < n {
				nw.SendPooled(m.Dst, m.Src, 64, kind, nil)
			}
		})
		nw.SendPooled(src, dst, 64, kind, nil)
		start := time.Now()
		err := k.Run()
		return time.Since(start), err
	}
}

// probeQueue: one push and one pop per iteration at a standing population
// of size events.
func probeQueue(size int) func(int) (time.Duration, error) {
	return func(n int) (time.Duration, error) {
		k := sim.New()
		done := 0
		var fn func(interface{})
		fn = func(interface{}) {
			if done++; done <= n {
				k.AtCall(k.Now()+float64(size), fn, nil)
			}
		}
		for i := 0; i < size; i++ {
			k.AtCall(sim.Time(i+1), fn, nil)
		}
		start := time.Now()
		err := k.Run()
		return time.Since(start), err
	}
}

// probeSwitch: two processes handing the baton back and forth, one switch
// per iteration — with the GOMAXPROCS(1) pin sequential runs use, and
// without it, as forks inside the server run.
func probeSwitch(pinned bool) func(int) (time.Duration, error) {
	return func(n int) (time.Duration, error) {
		k := sim.New()
		k.SetPinned(pinned)
		for i := 0; i < 2; i++ {
			k.Spawn(fmt.Sprint("p", i), func(p *sim.Proc) {
				for j := 0; j < n/2; j++ {
					p.Wait(1)
				}
			})
		}
		start := time.Now()
		err := k.Run()
		return time.Since(start), err
	}
}

// probeTimer: arm and cancel one timeout, what the reactive transport does
// per acknowledged message.
func probeTimer(n int) (time.Duration, error) {
	k := sim.New()
	var d time.Duration
	k.At(0, func() {
		start := time.Now()
		for i := 0; i < n; i++ {
			k.CancelTimer(k.TimerAt(k.Now()+1000, func(interface{}) {}, nil))
		}
		d = time.Since(start)
	})
	err := k.Run()
	return d, err
}
