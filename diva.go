package diva

import (
	"fmt"

	"diva/fault"
	"diva/internal/core"
	"diva/internal/decomp"
	"diva/internal/mesh"
	"diva/internal/metrics"
	"diva/internal/sim"
	"diva/strategy"
	"diva/topology"
)

// The user-facing simulator types, re-exported by alias so embedding
// applications never import diva/internal/... directly. Aliases (not
// wrappers) keep the public and internal surfaces type-identical, so a
// machine built through New is bit-for-bit the machine the golden
// determinism tests pin.
type (
	// Machine is a simulated parallel machine running the DIVA library.
	Machine = core.Machine
	// Proc is a simulated application process pinned to one processor; the
	// DIVA operations (Alloc, Read, Write, Lock, Barrier, Compute) hang
	// off it.
	Proc = core.Proc
	// VarID names a global variable.
	VarID = core.VarID
	// Strategy is the data management strategy protocol (see
	// diva/strategy).
	Strategy = core.Strategy
	// Factory constructs a strategy bound to a machine.
	Factory = core.Factory
	// Tree selects a hierarchical decomposition-tree variant; the
	// paper's variants are Ary2 ... Ary4K16.
	Tree = decomp.Spec
	// Topology abstracts the interconnect (see diva/topology).
	Topology = mesh.Topology
	// NetParams holds the timing characteristics of the simulated
	// machine; the zero value means GCelParams.
	NetParams = mesh.Params
	// Congestion summarizes link traffic: the per-link maximum and the
	// totals, in messages and bytes.
	Congestion = mesh.Congestion
	// Collector accumulates total and per-phase metrics of a run.
	Collector = metrics.Collector
	// Metrics is one measured interval: simulated time, congestion and
	// local computation time.
	Metrics = metrics.Result
	// Time is a simulated timestamp or duration in microseconds.
	Time = sim.Time
)

// The decomposition-tree variants evaluated in the paper.
var (
	Ary2    = decomp.Ary2
	Ary4    = decomp.Ary4
	Ary16   = decomp.Ary16
	Ary2K4  = decomp.Ary2K4
	Ary4K8  = decomp.Ary4K8
	Ary4K16 = decomp.Ary4K16
)

// GCelParams returns the network timing calibrated against the paper's
// Parsytec GCel measurements (the default of New).
func GCelParams() NetParams { return mesh.GCelParams() }

// options accumulates the functional options of New.
type options struct {
	cfg     core.Config
	treeSet bool
	defTree decomp.Spec
	err     error
}

// Option configures a machine built by New.
type Option func(*options)

// fail records the first option error; New reports it.
func (o *options) fail(err error) {
	if o.err == nil {
		o.err = err
	}
}

// WithMesh selects the paper's platform: a rows×cols 2D mesh.
func WithMesh(rows, cols int) Option {
	return func(o *options) {
		o.cfg.Rows, o.cfg.Cols = rows, cols
		o.cfg.Topology = nil
	}
}

// WithTopology selects an explicit interconnect (one of diva/topology's
// constructors, or your own Topology implementation).
func WithTopology(t Topology) Option {
	return func(o *options) {
		if t == nil {
			o.fail(fmt.Errorf("diva: WithTopology(nil)"))
			return
		}
		o.cfg.Topology = t
	}
}

// WithTopologyName selects the interconnect by registry name (see
// diva/topology) for the canonical rows×cols machine size.
func WithTopologyName(name string, rows, cols int) Option {
	return func(o *options) {
		t, err := topology.Build(name, rows, cols)
		if err != nil {
			o.fail(err)
			return
		}
		o.cfg.Topology = t
	}
}

// WithStrategy selects the data management strategy by factory. A nil
// factory builds a machine without shared variables (hand-optimized
// message passing programs only). It replaces an earlier strategy option
// entirely, including the default tree a WithStrategyName recorded.
func WithStrategy(f Factory) Option {
	return func(o *options) {
		o.cfg.Strategy = f
		o.defTree = decomp.Spec{}
	}
}

// WithStrategyName selects the data management strategy by registry name
// (see diva/strategy) and applies the registered variant's decomposition
// tree, unless an explicit WithTree overrides it.
func WithStrategyName(name string) Option {
	return func(o *options) {
		s, err := strategy.Get(name)
		if err != nil {
			o.fail(err)
			return
		}
		o.cfg.Strategy = s.Factory
		o.defTree = s.Tree
	}
}

// WithSeed sets the master random seed; identical seeds give identical
// event orders and metrics.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.cfg.Seed = seed }
}

// WithTree sets the decomposition-tree variant used for access trees and
// the barrier, overriding a strategy's registered default.
func WithTree(t Tree) Option {
	return func(o *options) {
		o.cfg.Tree = t
		o.treeSet = true
	}
}

// WithCacheCapacity bounds the memory for variable copies per node, in
// bytes. Zero means unbounded (the paper's default setting).
func WithCacheCapacity(bytes int) Option {
	return func(o *options) { o.cfg.CacheCapacity = bytes }
}

// WithNetParams overrides the network timing (default: GCelParams).
func WithNetParams(p NetParams) Option {
	return func(o *options) { o.cfg.Net = p }
}

// WithConcurrent does nothing.
//
// Deprecated: machines no longer pin GOMAXPROCS while they run, so any
// number of them run side by side without saying so.
func WithConcurrent(on bool) Option { return func(*options) {} }

// WithFaults installs an explicit fault schedule (see diva/fault): timed
// link outages and node churn, applied deterministically in the network's
// global routing order. Repeated options accumulate (and compose with
// WithFaultGen). An invalid schedule — unknown endpoints, a down event
// without a matching up, a mid-state duplicate — fails New.
func WithFaults(s fault.Schedule) Option {
	return func(o *options) { o.cfg.Faults = append(o.cfg.Faults, s...) }
}

// The fault-tolerance modes of WithRecovery.
const (
	// RecoveryOracle is the default mode: the network holds in-flight
	// messages across outages and strategies re-route instantaneously —
	// failure knowledge is free, as if an oracle announced every fault.
	RecoveryOracle = core.RecoveryOracle
	// RecoveryReactive makes fault tolerance earn its keep: messages to a
	// downed endpoint are dropped, every payload message is acknowledged,
	// senders detect failure by retransmission timeout with deterministic
	// exponential backoff, and after max retries the strategy recovers
	// (fixedhome fails the home over, accesstree re-issues over the
	// re-embedded forest). Deterministic: same seed, same run.
	RecoveryReactive = core.RecoveryReactive
)

// WithRecovery selects the fault-tolerance mode, RecoveryOracle (the
// default) or RecoveryReactive. The modes simulate different machines:
// reactive runs carry ack and retransmission traffic, so their metrics
// and fingerprints differ from oracle runs even fault-free.
func WithRecovery(mode string) Option {
	return func(o *options) { o.cfg.Recovery = mode }
}

// WithAckTransport tunes the reactive transport's retransmission policy:
// the initial ack timeout in simulated microseconds, the retransmission
// attempts before the strategy is told to recover, and the exponential
// backoff multiplier between attempts (at least 1). Zero fields keep the
// defaults spec.RecoveryFields lists. It requires
// WithRecovery(RecoveryReactive); New rejects the combination with the
// oracle mode, where no transport exists to tune.
func WithAckTransport(ackTimeoutUS float64, maxRetries int, backoff float64) Option {
	return func(o *options) {
		o.cfg.AckTimeoutUS = ackTimeoutUS
		o.cfg.MaxRetries = maxRetries
		o.cfg.Backoff = backoff
	}
}

// WithFaultGen draws a randomized fault schedule (see fault.Gen) at
// construction, from a stream of its own seeded with the run seed under a
// private salt — the machine RNG is not touched: the same seed always
// yields the same faults, across re-runs and forks. Composes with
// WithFaults; the drawn schedule can be read back with
// m.Net.FaultSchedule() and re-declared explicitly to reproduce the run
// elsewhere.
func WithFaultGen(g fault.Gen) Option {
	return func(o *options) { o.cfg.FaultGen = &g }
}

// New builds a simulated DIVA machine from functional options and
// validates the configuration: errors — an unknown registry name,
// non-positive mesh dimensions, an unsupported decomposition tree, a
// negative cache capacity — are returned, never panicked.
//
// A machine needs an interconnect (WithMesh, WithTopology or
// WithTopologyName) and, for programs using global variables, a strategy
// (WithStrategy or WithStrategyName). Everything else has the paper's
// defaults: GCel network timing, the 4-ary decomposition tree, unbounded
// caches, seed 0.
func New(opts ...Option) (*Machine, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.err != nil {
		return nil, o.err
	}
	if !o.treeSet && o.defTree != (decomp.Spec{}) {
		o.cfg.Tree = o.defTree
	}
	return core.NewMachine(o.cfg)
}

// MustNew is New for configurations known to be valid; it panics on
// error. Tests and fixed example setups use it.
func MustNew(opts ...Option) *Machine {
	m, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// NewCollector attaches a total/per-phase metrics collector to m's
// network. Workloads with phases (Barnes-Hut) record into it; Total and
// Phase report simulated time, congestion and local computation per
// measured interval.
func NewCollector(m *Machine) *Collector { return metrics.New(m.Net) }

// LinkHeatmap renders the per-link message-load heatmap of a mesh machine
// (digits are deciles of the busiest link's load). ok is false when the
// machine's topology is not a 2D mesh — the heatmap is mesh-specific.
func LinkHeatmap(m *Machine) (heatmap string, ok bool) {
	mm, isMesh := m.MeshTopo()
	if !isMesh {
		return "", false
	}
	return metrics.HeatmapMsgs(mm, m.Net.AppendLoads(nil), nil), true
}

// BusiestLinks describes the k busiest links of a mesh machine, busiest
// first. ok is false when the machine's topology is not a 2D mesh.
func BusiestLinks(m *Machine, k int) (links []string, ok bool) {
	mm, isMesh := m.MeshTopo()
	if !isMesh {
		return nil, false
	}
	return metrics.TopLinks(mm, m.Net.AppendLoads(nil), k), true
}

// TotalEvictions sums the copy evictions over all node caches (nonzero
// only on machines with a bounded WithCacheCapacity).
func TotalEvictions(m *Machine) uint64 {
	var ev uint64
	for n := 0; n < m.P(); n++ {
		ev += m.Cache(n).Evictions()
	}
	return ev
}
