package core

import (
	"fmt"

	"diva/internal/mesh"
	"diva/internal/sim"
	"diva/internal/xrand"
)

// Wire forms of the machine snapshot, for on-disk persistence
// (diva/snapstore). A Snapshot pins the machine Config, which holds a
// Topology interface and a Strategy factory function — neither is
// serializable — so the wire form carries only the mutable simulated
// state; the store persists the machine's spec document alongside it and
// rebuilds an identically configured machine before converting back
// (SnapshotFromWire). Strategy blobs cross the boundary through the
// StratWire indirection implemented by the built-in strategies.

// KeyWire names one cache entry: the variable and the strategy's name for
// the place holding the copy (Cache.Insert).
type KeyWire struct {
	Var  int32
	Node int
}

// StratWire is the exported, gob-encodable form of a strategy's snapshot
// blob. Implementations register their concrete types with encoding/gob.
type StratWire interface {
	// Blob converts back to the strategy's private snapshot blob (the
	// Forker.RestoreState input).
	Blob() interface{}
}

// WireSnapshotter is implemented by strategy snapshot blobs that can
// convert to a StratWire; a strategy whose blob does not implement it
// cannot be persisted (live snapshot/fork is unaffected).
type WireSnapshotter interface {
	Wire() StratWire
}

// SnapshotWire is the gob-encodable form of a machine Snapshot: everything
// but the Config. Variable payloads ride along as interface values; the
// concrete payload types are registered with gob by the packages defining
// them, and an unregistered payload surfaces as an encode error at save
// time.
type SnapshotWire struct {
	Kern    sim.KernelState
	Cluster *sim.ClusterState
	Net     *mesh.NetworkWire
	RNG     xrand.State
	Vars    []VarWire
	Barrier BarrierWire
	Caches  []CacheWire
	Strat   StratWire
}

// VarWire is one variable record.
type VarWire struct {
	Present bool
	Size    int
	Creator int
	Data    interface{}
	Local   []uint64
}

// BarrierWire is the barrier's epochs and commit counters.
type BarrierWire struct {
	Epoch    []uint64
	Batched  uint64
	Cascaded uint64
	Aborted  uint64
}

// CacheWire is one node cache: entry keys in LRU→MRU order plus the
// replacement counter.
type CacheWire struct {
	Keys      []KeyWire
	Evictions uint64
}

// Wire converts the snapshot to its serializable form. It fails when the
// strategy blob has no wire representation.
func (s *Snapshot) Wire() (*SnapshotWire, error) {
	w := &SnapshotWire{Kern: s.kern, Cluster: s.cluster, Net: s.net.Wire(), RNG: s.rng}
	w.Vars = make([]VarWire, len(s.vars))
	for i := range s.vars {
		vs := &s.vars[i]
		// Local aliases the snapshot's bitmap: both are immutable.
		w.Vars[i] = VarWire{
			Present: vs.present,
			Size:    vs.size,
			Creator: vs.creator,
			Data:    vs.data,
			Local:   vs.local,
		}
	}
	w.Barrier = BarrierWire{
		Epoch:    append([]uint64(nil), s.barrier.epoch...),
		Batched:  s.barrier.batched,
		Cascaded: s.barrier.cascaded,
		Aborted:  s.barrier.aborted,
	}
	w.Caches = make([]CacheWire, len(s.caches))
	for i := range s.caches {
		cs := &s.caches[i]
		w.Caches[i] = CacheWire{Keys: cs.keys, Evictions: cs.evictions}
	}
	if s.strat != nil {
		ws, ok := s.strat.(WireSnapshotter)
		if !ok {
			return nil, fmt.Errorf("diva: strategy snapshot %T has no wire form", s.strat)
		}
		w.Strat = ws.Wire()
	}
	return w, nil
}

// SnapshotFromWire reconstructs a Snapshot from its wire form, pinning the
// Config of m — a machine freshly built from the same machine description
// the wire was captured under (the store keeps that description alongside
// the wire data). The wire's shape is validated against m: shard count,
// topology size, barrier width, strategy presence. m itself is not
// touched; it only donates the configuration.
func SnapshotFromWire(m *Machine, w *SnapshotWire) (*Snapshot, error) {
	if w.Net == nil {
		return nil, fmt.Errorf("diva: wire snapshot has no network state")
	}
	s := &Snapshot{rng: w.RNG}
	s.cfg = m.Cfg
	s.cfg.Shards = m.Shards()
	if w.Cluster != nil {
		if len(w.Cluster.Kernels) != s.cfg.Shards {
			return nil, fmt.Errorf("diva: wire snapshot has %d shards, machine resolves %d", len(w.Cluster.Kernels), s.cfg.Shards)
		}
		cs := *w.Cluster
		cs.Kernels = append([]sim.KernelState(nil), w.Cluster.Kernels...)
		s.cluster = &cs
	} else {
		if s.cfg.Shards != 1 {
			return nil, fmt.Errorf("diva: sequential wire snapshot, machine resolves %d shards", s.cfg.Shards)
		}
		s.kern = w.Kern
	}
	net, err := w.Net.State()
	if err != nil {
		return nil, err
	}
	s.net = net
	s.vars = make([]varSnap, len(w.Vars))
	words := m.localWords()
	for i := range w.Vars {
		vw := &w.Vars[i]
		vs := varSnap{present: vw.Present, size: vw.Size, creator: vw.Creator, data: vw.Data}
		if vw.Present {
			// The bitmap is the fixed home strategy's copy directory: a bit
			// past the last processor would address a node that does not
			// exist.
			if len(vw.Local) != words {
				return nil, fmt.Errorf("diva: wire variable %d has a %d-word local bitmap, machine needs %d", i, len(vw.Local), words)
			}
			if tail := uint(m.P()) & 63; tail != 0 && vw.Local[words-1]>>tail != 0 {
				return nil, fmt.Errorf("diva: wire variable %d marks a copy beyond processor %d", i, m.P()-1)
			}
			vs.local = vw.Local
		}
		s.vars[i] = vs
	}
	if len(w.Barrier.Epoch) != len(m.bar.epoch) {
		return nil, fmt.Errorf("diva: wire barrier has %d epochs, machine has %d", len(w.Barrier.Epoch), len(m.bar.epoch))
	}
	s.barrier = barrierSnap{
		epoch:    append([]uint64(nil), w.Barrier.Epoch...),
		batched:  w.Barrier.Batched,
		cascaded: w.Barrier.Cascaded,
		aborted:  w.Barrier.Aborted,
	}
	if len(w.Caches) != len(m.caches) {
		return nil, fmt.Errorf("diva: wire snapshot has %d caches, machine has %d", len(w.Caches), len(m.caches))
	}
	if w.Strat != nil && m.Strat == nil {
		return nil, fmt.Errorf("diva: wire snapshot has strategy state, machine has no strategy")
	}
	s.caches = make([]cacheSnap, len(w.Caches))
	for i := range w.Caches {
		cw := &w.Caches[i]
		if len(cw.Keys) > 0 && w.Strat == nil {
			return nil, fmt.Errorf("diva: wire snapshot has cache keys but no strategy state")
		}
		s.caches[i] = cacheSnap{keys: cw.Keys, evictions: cw.Evictions}
	}
	if w.Strat != nil {
		s.strat = w.Strat.Blob()
	}
	return s, nil
}
