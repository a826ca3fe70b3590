// Package core implements the DIVA (Distributed Variables) library: fully
// transparent access to global variables — shared data objects — from the
// individual nodes of a simulated mesh-connected parallel machine.
//
// A Machine ties together the event kernel, the mesh network, the
// hierarchical mesh decomposition and a data management strategy (the
// access tree strategy of the paper, or the fixed-home baseline). Programs
// are SPMD: the same function runs as one simulated process per processor
// and accesses shared state exclusively through
//
//	v := p.Alloc(size, value)   // create a global variable
//	x := p.Read(v)              // transparent read (may migrate copies)
//	p.Write(v, y)               // transparent write (invalidates copies)
//	p.Lock(v) / p.Unlock(v)     // per-variable mutual exclusion
//	p.Barrier()                 // global barrier synchronization
//
// Reads and writes of the same variable are serialized by a per-variable
// reader/writer queue (readers share, writers are exclusive, FIFO), which
// models the request queueing of a real implementation. That is design
// decision D4: the queueing delays requests but sends no messages of its own.
package core

import (
	"fmt"

	"diva/internal/decomp"
	"diva/internal/mesh"
	"diva/internal/sim"
	"diva/internal/xrand"
)

// Strategy is a dynamic data management strategy: it decides how many
// copies of each variable exist, where they are placed, and how consistency
// is maintained. Implemented by internal/core/accesstree and
// internal/core/fixedhome.
type Strategy interface {
	// Name identifies the strategy in reports ("4-ary access tree", ...).
	Name() string
	// InitVar installs the initial configuration for a fresh variable: the
	// creator holds the only copy.
	InitVar(v *Variable)
	// Read performs a read transaction for process p; it may block p. The
	// caller holds the variable's shared transaction slot.
	Read(p *Proc, v *Variable) interface{}
	// Write performs a write transaction; it may block p. The caller holds
	// the variable's exclusive transaction slot.
	Write(p *Proc, v *Variable, val interface{})
	// FreeVar releases all protocol state of v (no messages; see DESIGN D6).
	FreeVar(v *Variable)
	// Lock acquires the mutual-exclusion lock attached to v; Unlock
	// releases it. Lock may block p.
	Lock(p *Proc, v *Variable)
	Unlock(p *Proc, v *Variable)
}

// Factory constructs a strategy bound to a machine. It is called once
// during NewMachine, after the network and decomposition tree exist.
type Factory func(*Machine) Strategy

// Config describes a simulated machine.
type Config struct {
	Rows, Cols int // mesh dimensions (used when Topology is nil)
	// Topology selects the interconnect. When nil, a Rows×Cols mesh (the
	// paper's platform) is built; any other mesh.Topology — torus,
	// hypercube, fat-tree, or one of your own — runs the same strategies
	// unchanged.
	Topology mesh.Topology
	Net      mesh.Params // timing; zero value means mesh.GCelParams()
	Seed     uint64      // master random seed
	Tree     decomp.Spec // decomposition for access trees and the barrier
	Strategy Factory     // data management strategy (nil: no shared vars)
	// CacheCapacity bounds the memory for copies per node, in bytes.
	// 0 means unbounded (the paper's default setting).
	CacheCapacity int
	// Faults is an explicit fault schedule (link outages and node churn)
	// applied lazily in the network's global routing order; FaultGen, when
	// non-nil, additionally draws a randomized schedule from a seed-derived
	// RNG at construction (so the same seed always yields the same faults,
	// across re-runs and forks, without advancing the machine RNG). Both
	// empty means a fault-free machine on the exact pre-fault code path.
	Faults mesh.FaultSchedule
	// FaultGen draws additional randomized faults from a seed-derived RNG.
	FaultGen *mesh.FaultGen
	// Recovery selects how the machine tolerates faults. "" or
	// RecoveryOracle is the default oracle mode: undeliverable messages
	// consult global link state and are held until the exact heal time —
	// no simulated protocol ever observes a failure, and every fault-free
	// run is on the exact pre-fault code path. RecoveryReactive switches
	// the network to lossy delivery with the ack/retransmit transport:
	// messages crossing a failure point are dropped, failures are detected
	// by ack timeouts, and the strategies recover at the protocol level
	// (fixedhome home failover, accesstree re-issue). Reactive runs are
	// deterministic — fingerprint-identical across fork/restore — but
	// simulate a different (more faithful) machine than oracle runs.
	Recovery string
	// AckTimeoutUS, MaxRetries and Backoff tune the reactive transport
	// (zero values take mesh.DefaultReactParams); setting any of them with
	// oracle recovery is a configuration error.
	AckTimeoutUS float64
	MaxRetries   int
	Backoff      float64
}

// Recovery modes for Config.Recovery.
const (
	RecoveryOracle   = "oracle"
	RecoveryReactive = "reactive"
)

// Machine is a simulated parallel machine running the DIVA library.
type Machine struct {
	K    *sim.Kernel
	Net  *mesh.Network
	Topo mesh.Topology
	Tree *decomp.Tree
	// Plan is what the machine shares with every other machine on the same
	// topology and tree spec; Topo and Tree are its.
	Plan *Plan
	Cfg  Config
	RNG  *xrand.RNG

	Strat  Strategy
	vars   []*Variable
	caches []Cache // one a node if the caches are bounded, else none (Cache)
	// localSlab is the unused tail of the current bitmap slab the
	// variables' local-copy bitmaps are carved from (one bit per
	// processor each); localFree recycles the bitmaps of freed variables.
	// Slabs double from localSlabMin bitmaps, so a machine with a handful of
	// variables does not pay for a big first block.
	localSlab []uint64
	localGrow int
	localFree [][]uint64
	// varSlab is the unused tail of the block of varSlabLen records that
	// fresh variable records are carved from. A freed record is never handed
	// out again: a protocol message still in flight may point at it, and
	// must find it dead.
	varSlab []Variable
	// lender is the snapshot a fork was made from, and lent has a bit set
	// for each of its variables the fork still borrows: that variable's slot
	// in vars is nil until Var makes the fork's own record (borrow).
	lender *Snapshot
	lent   []uint64

	bar *barrier
}

// NewMachine builds a machine from cfg. The configuration is validated:
// invalid setups — non-positive mesh dimensions, an unsupported
// decomposition spec, a negative cache capacity — are reported as errors,
// never as panics, so embedding applications can surface them. Everything
// that depends only on the topology and the tree spec comes from the
// process-wide Plan the machine shares with every other machine like it.
func NewMachine(cfg Config) (*Machine, error) { return newMachine(cfg, nil) }

// newMachine is NewMachine on a given plan — a fork's, pinned by its
// snapshot — or, with none, on the shared plan of cfg's topology and tree.
func newMachine(cfg Config, plan *Plan) (*Machine, error) {
	topo := cfg.Topology
	if plan != nil {
		topo = plan.Topo
	} else if topo == nil {
		if cfg.Rows <= 0 || cfg.Cols <= 0 {
			return nil, fmt.Errorf("diva: mesh dimensions must be positive, have %dx%d", cfg.Rows, cfg.Cols)
		}
		topo = mesh.New(cfg.Rows, cfg.Cols)
	} else if topo.N() <= 0 {
		return nil, fmt.Errorf("diva: topology %v has no processors", topo)
	}
	if cfg.Net == (mesh.Params{}) {
		cfg.Net = mesh.GCelParams()
	} else if cfg.Net.BytesPerUS <= 0 {
		// Partially-specified params are not silently replaced by the
		// defaults: that would drop the fields the caller did set.
		return nil, fmt.Errorf("diva: link bandwidth must be positive, have %v bytes/us (start from GCelParams when overriding individual timings)", cfg.Net.BytesPerUS)
	}
	if cfg.Tree.Base == 0 {
		cfg.Tree = decomp.Ary4
	}
	if !cfg.Tree.Valid() {
		return nil, fmt.Errorf("diva: unsupported decomposition tree %s (base must be 2, 4 or 16; k must be 0 or >= base)", cfg.Tree.Name())
	}
	if cfg.CacheCapacity < 0 {
		return nil, fmt.Errorf("diva: cache capacity must be non-negative, have %d", cfg.CacheCapacity)
	}
	switch cfg.Recovery {
	case "", RecoveryOracle:
		if cfg.AckTimeoutUS != 0 || cfg.MaxRetries != 0 || cfg.Backoff != 0 {
			return nil, fmt.Errorf("diva: reactive transport parameters (ack timeout, max retries, backoff) require recovery %q", RecoveryReactive)
		}
	case RecoveryReactive:
		// Fill the unset transport parameters from the defaults now, so the
		// pinned fork config and a declared-back spec replay identically.
		def := mesh.DefaultReactParams()
		if cfg.AckTimeoutUS == 0 {
			cfg.AckTimeoutUS = def.AckTimeoutUS
		}
		if cfg.MaxRetries == 0 {
			cfg.MaxRetries = def.MaxRetries
		}
		if cfg.Backoff == 0 {
			cfg.Backoff = def.Backoff
		}
	default:
		return nil, fmt.Errorf("diva: unknown recovery mode %q (want %q or %q)", cfg.Recovery, RecoveryOracle, RecoveryReactive)
	}
	if plan == nil {
		plan = planFor(topo, cfg.Tree)
	}
	m := &Machine{
		K:    sim.New(),
		Topo: topo,
		Tree: plan.Tree,
		Plan: plan,
		Cfg:  cfg,
		RNG:  xrand.New(cfg.Seed ^ seedSalt),
	}
	m.Net = mesh.NewNetworkOn(m.K, plan.Routes, cfg.Net)
	// Fault schedule: explicit events first, then the seeded draw. The draw
	// uses its own seed-derived RNG — never the shared machine RNG — so a
	// machine given the drawn schedule explicitly (FaultSchedule() declared
	// back through the spec) replays bit-identically, and forks and
	// same-seed re-runs regenerate the identical schedule. An empty result
	// never touches the network.
	sched := append(mesh.FaultSchedule(nil), cfg.Faults...)
	if g := cfg.FaultGen; g != nil {
		drawn, err := g.Generate(plan.Routes, xrand.New(cfg.Seed^faultSalt))
		if err != nil {
			return nil, err
		}
		sched = append(sched, drawn...)
	}
	if len(sched) > 0 {
		if err := m.Net.InstallFaults(sched); err != nil {
			return nil, err
		}
	}
	if cfg.Recovery == RecoveryReactive {
		// The transport seed is split off the run seed under a private salt
		// (the fault-draw pattern): per-node jitter streams never touch the
		// machine RNG, so oracle and reactive runs of the same seed share
		// every other random draw.
		p := mesh.ReactParams{AckTimeoutUS: cfg.AckTimeoutUS, MaxRetries: cfg.MaxRetries, Backoff: cfg.Backoff}
		if err := m.Net.EnableReactive(p, cfg.Seed^reactSalt); err != nil {
			return nil, err
		}
	}
	m.bar = newBarrier(m)
	if cfg.Strategy != nil {
		m.Strat = cfg.Strategy(m)
	}
	if cfg.CacheCapacity > 0 {
		ev, _ := m.Strat.(Evictor)
		m.caches = make([]Cache, m.Topo.N())
		for i := range m.caches {
			m.caches[i] = Cache{capacity: cfg.CacheCapacity, proc: i, ev: ev}
		}
	}
	return m, nil
}

// MustNewMachine is NewMachine for configurations known to be valid; it
// panics on a validation error. Tests and fixed internal setups use it.
func MustNewMachine(cfg Config) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// P returns the number of processors.
func (m *Machine) P() int { return m.Topo.N() }

// MeshTopo returns the machine's topology as a 2D mesh when it is one
// (the hand-optimized message passing programs and the link heatmaps are
// mesh-specific).
func (m *Machine) MeshTopo() (mesh.Mesh, bool) {
	mm, ok := m.Topo.(mesh.Mesh)
	return mm, ok
}

// Var returns the variable record for id, made first if the machine is a
// fork that still borrows it from its snapshot. Freed or unknown ids panic.
// Every access to a variable — the strategies', the processes' and the
// applications' — comes through here.
func (m *Machine) Var(id VarID) *Variable {
	if uint(id) < uint(len(m.vars)) && m.vars[id] != nil {
		return m.vars[id]
	}
	return m.borrow(id)
}

// Cache returns node's copy cache (used by strategies). Without a cache
// bound all machines share one unbounded cache, which no method writes.
func (m *Machine) Cache(node int) *Cache {
	if m.caches == nil {
		return &unboundedCache
	}
	return &m.caches[node]
}

var unboundedCache Cache

// CachesBounded reports whether the machine's caches enforce a capacity
// (strategies skip all replacement bookkeeping when they do not).
func (m *Machine) CachesBounded() bool { return m.Cfg.CacheCapacity > 0 }

// Proc is a simulated application process pinned to one processor.
type Proc struct {
	*sim.Proc
	ID int // processor id, row-major
	M  *Machine

	park sim.Future
}

// Park resets and returns p's reusable future. A process blocks on one
// thing at a time — a transaction slot, a lock, a barrier — so the library
// parks it on this one future instead of allocating one per wait. The
// future must be dropped by whoever completes it: it is live again at p's
// next wait.
func (p *Proc) Park() *sim.Future {
	p.park = sim.Future{}
	return &p.park
}

// Run spawns one process per processor executing program and runs the
// simulation to completion. It returns the kernel's error (deadlocks
// surface here).
//
// A run that drains — returns with nothing pending, the moment the kernel
// hands its event store over — hands over the network's and the
// strategy's run-transient storage too (handOver); a canceled or
// deadlocked run keeps it.
func (m *Machine) Run(program func(p *Proc)) error {
	m.SpawnAll(program)
	err := m.K.Run()
	if err == nil && m.K.Pending() == 0 {
		m.handOver()
	}
	return err
}

// handOverer is a strategy whose transaction records go to a shelf when a
// run drains.
type handOverer interface{ HandOver() }

// handOver gives the storage that holds nothing once a run has drained —
// the network's message pool, receiver records, replay journal and start
// times, and the strategy's transaction records — to
// the process-wide shelves, for the next machine to adopt at its first
// need. Machine state that snapshots capture stays: variables and their
// protocol state, node tables, inbox queues, reactive channels.
func (m *Machine) handOver() {
	m.Net.HandOver()
	if s, ok := m.Strat.(handOverer); ok {
		s.HandOver()
	}
}

// SpawnAll spawns the SPMD processes without running the kernel; use
// together with m.K.Run when the caller schedules additional activity.
func (m *Machine) SpawnAll(program func(p *Proc)) {
	// One slab holds both records of every process, and they share one body
	// that finds its Proc by index: nothing is allocated per process.
	recs := make([]struct {
		p  Proc
		sp sim.Proc
	}, m.P())
	body := func(sp *sim.Proc) { program(&recs[sp.Index()].p) }
	for i := range recs {
		r := &recs[i]
		r.p = Proc{Proc: &r.sp, ID: i, M: m}
		m.K.SpawnAt(&r.sp, i, body)
	}
}

// Elapsed returns the current simulated time in microseconds.
func (m *Machine) Elapsed() sim.Time { return m.K.Now() }

// Compute charges d microseconds of application computation to p's CPU.
func (p *Proc) Compute(d float64) { p.M.Net.Compute(p.Proc, p.ID, d) }

// Alloc creates a global variable of the given payload size (bytes) with
// initial value val, owned by the calling process (the only copy lives in
// its cache). It is a purely local operation.
func (p *Proc) Alloc(size int, val interface{}) VarID {
	return p.M.alloc(p.ID, size, val)
}

// AllocAt creates a variable owned by the given processor from outside any
// process (setup code at time zero).
func (m *Machine) AllocAt(creator, size int, val interface{}) VarID {
	return m.alloc(creator, size, val)
}

func (m *Machine) alloc(creator, size int, val interface{}) VarID {
	if m.Strat == nil {
		panic("core: machine has no data management strategy")
	}
	if size <= 0 {
		panic("core: variable size must be positive")
	}
	v := m.newVar()
	*v = Variable{
		ID:      VarID(len(m.vars)),
		Size:    size,
		Creator: creator,
		Data:    val,
		local:   m.newLocal(),
	}
	m.vars = append(m.vars, v)
	m.Strat.InitVar(v)
	return v.ID
}

// Free releases a variable's protocol state on all nodes. Local operation;
// the id must not be used afterwards. A fork makes a variable it still
// borrows before freeing it, which ends the loan: the id is never borrowed
// again.
func (m *Machine) Free(id VarID) {
	v := m.Var(id)
	if v.busy() {
		panic(fmt.Sprintf("core: freeing variable %d with active transactions", id))
	}
	m.Strat.FreeVar(v)
	m.vars[id] = nil
	m.localFree = append(m.localFree, v.local)
	v.local = nil
}

// The first bitmap slab holds localSlabMin bitmaps, no slab more than
// localSlabMax; variable records come varSlabLen to a block.
const (
	localSlabMin = 8
	localSlabMax = 1024
	varSlabLen   = 16
)

// newVar carves a variable record.
func (m *Machine) newVar() *Variable {
	if len(m.varSlab) == 0 {
		m.varSlab = make([]Variable, varSlabLen)
	}
	v := &m.varSlab[0]
	m.varSlab = m.varSlab[1:]
	return v
}

// localWords is the length of one local-copy bitmap in words.
func (m *Machine) localWords() int { return (m.P() + 63) / 64 }

// newLocal returns an empty local-copy bitmap for a fresh variable.
func (m *Machine) newLocal() []uint64 {
	if n := len(m.localFree); n > 0 {
		b := m.localFree[n-1]
		m.localFree = m.localFree[:n-1]
		clear(b)
		return b
	}
	w := m.localWords()
	if len(m.localSlab) < w {
		m.localGrow = min(max(localSlabMin, 2*m.localGrow), localSlabMax)
		m.localSlab = make([]uint64, w*m.localGrow)
	}
	b := m.localSlab[:w:w]
	m.localSlab = m.localSlab[w:]
	return b
}

// Read returns the current value of v, migrating or replicating copies
// according to the machine's strategy. Blocks until the value is local.
func (p *Proc) Read(id VarID) interface{} {
	v := p.M.Var(id)
	// Local-hit fast path (the force phase of Barnes-Hut hits ~99%): with
	// unbounded caches a local read has no protocol action and no LRU
	// bookkeeping, and since it cannot block, the reader-count round-trip
	// through the rw queue is unobservable — one bitmap load replaces the
	// strategy dispatch and its pointer chase through the variable state.
	if p.M.caches == nil && !v.rw.writer && v.rw.waiters.Len() == 0 && v.LocalBit(p.ID) {
		return v.Data
	}
	v.acquireRead(p)
	val := p.M.Strat.Read(p, v)
	v.releaseRead(p.M.K)
	return val
}

// Write replaces the value of v, invalidating remote copies according to
// the machine's strategy. Values must be treated as immutable: writers
// store fresh values, they never mutate a value obtained from Read.
func (p *Proc) Write(id VarID, val interface{}) {
	v := p.M.Var(id)
	v.acquireWrite(p)
	p.M.Strat.Write(p, v, val)
	v.releaseWrite(p.M.K)
}

// Lock acquires the mutual-exclusion lock attached to variable id.
func (p *Proc) Lock(id VarID) { p.M.Strat.Lock(p, p.M.Var(id)) }

// Unlock releases the lock attached to variable id.
func (p *Proc) Unlock(id VarID) { p.M.Strat.Unlock(p, p.M.Var(id)) }

// Barrier blocks until every processor has entered the barrier. The
// implementation combines arrivals up the decomposition tree and multicasts
// the release down it ("elegant algorithms that use access trees, too").
func (p *Proc) Barrier() { p.M.bar.wait(p, nil, nil, 0) }

// BarrierReduce is Barrier with an all-reduce: every process contributes
// val; combine must be associative and identical on all processes; the
// combined value (in leaf order) is returned to every process. size is the
// payload size in bytes added to the barrier messages.
func (p *Proc) BarrierReduce(val interface{}, size int, combine func(a, b interface{}) interface{}) interface{} {
	return p.M.bar.wait(p, val, combine, size)
}
