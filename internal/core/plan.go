package core

import (
	"sync"
	"sync/atomic"

	"diva/internal/decomp"
	"diva/internal/mesh"
)

// Plan is the part of a machine that is a pure function of (topology, tree
// spec): the topology instance, the decomposition tree — of which the
// access tree of every variable is a copy (§2) — the route memo and the
// modular-embedding position tables. It is immutable as far as any reader
// can tell, so one Plan is shared by reference by every machine, fork and
// request of the process that runs on the same topology and tree: nothing
// in it is rebuilt per machine.
//
// The topology (with a graph's BFS tables) and the tree are complete at
// construction. The route memo and the position tables are too large for
// that, so they fill on first use and are published once (mesh.Routes;
// PosTable below) — safe because their content depends on the key alone,
// not on which machine fills it. Both stop growing at a fixed size.
type Plan struct {
	Topo   mesh.Topology
	Tree   *decomp.Tree
	Routes *mesh.Routes // of the topology: one for its plans under every tree spec

	key      planKey                   // in the plan table; zero for a private plan
	mu       sync.Mutex                // serializes position-table fills
	pos      []atomic.Pointer[[]int32] // by root processor; nil = not computed
	posBytes atomic.Int64
	posMax   int64
}

// planPosBytes is where a plan's position tables stop growing (a 32×32
// machine's full set is 8 MB), as its route memo does at
// mesh.RouteBytesMax. Past them routes are walked per message and position
// tables computed per variable, as correct and slower.
const planPosBytes = 16 << 20

func newPlan(t mesh.Topology, spec decomp.Spec, routes *mesh.Routes, posBytes int) *Plan {
	return &Plan{
		Topo:   t,
		Tree:   decomp.Build(t, spec),
		Routes: routes,
		pos:    make([]atomic.Pointer[[]int32], t.N()),
		posMax: int64(posBytes),
	}
}

// PosTable returns the processor simulating every tree node under the
// modular embedding rooted at processor root, indexed by node id. The
// table is shared and must not be modified.
func (p *Plan) PosTable(root int) []int32 {
	if tab := p.pos[root].Load(); tab != nil {
		return *tab
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if tab := p.pos[root].Load(); tab != nil {
		return *tab
	}
	tab := p.Tree.EmbedAll(root)
	if size := int64(4 * len(tab)); p.posBytes.Load()+size <= p.posMax {
		p.posBytes.Add(size)
		p.pos[root].Store(&tab)
	}
	return tab
}

// planKey identifies a plan: the topology compares by content for the
// built-in families, by pointer for graphs.
type planKey struct {
	topo mesh.Topology
	spec decomp.Spec
}

// planTable holds the process's plans, at most maxPlans of them: the least
// recently used is forgotten first (machines already built keep theirs).
type planTable struct {
	mu     sync.Mutex
	plans  []*Plan // least recently used first
	hits   int64
	builds int64
}

const maxPlans = 16

var plans planTable

// get returns the plan under key, marking it used. A missing one is built
// under the lock — so exactly once however many machines ask at the same
// time — on the route memo of any other plan of the same topology: routes
// do not depend on the tree spec.
func (pt *planTable) get(key planKey) *Plan {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	var routes *mesh.Routes
	for i, p := range pt.plans {
		if p.key == key {
			copy(pt.plans[i:], pt.plans[i+1:])
			pt.plans[len(pt.plans)-1] = p
			pt.hits++
			return p
		}
		if p.key.topo == key.topo {
			routes = p.Routes
		}
	}
	if routes == nil {
		routes = mesh.NewRoutes(key.topo, mesh.RouteBytesMax)
	}
	p := newPlan(key.topo, key.spec, routes, planPosBytes)
	p.key = key
	pt.builds++
	pt.plans = append(pt.plans, p)
	if len(pt.plans) > maxPlans {
		pt.plans = append(pt.plans[:0], pt.plans[1:]...)
	}
	return p
}

// planFor returns the plan of a machine on (t, spec): the shared one for
// the built-in topologies, which are immutable — the families are plain
// values, a graph never changes once built. Any other implementation may
// answer differently the next time it is asked (or hold state that does
// not compare), so each of its machines gets a plan of its own.
func planFor(t mesh.Topology, spec decomp.Spec) *Plan {
	switch t.(type) {
	case mesh.Mesh, mesh.Torus, mesh.Hypercube, mesh.FatTree, *mesh.Graph:
		return plans.get(planKey{t, spec})
	}
	return newPlan(t, spec, mesh.NewRoutes(t, mesh.RouteBytesMax), planPosBytes)
}

// PlanStats describes the process-wide plan table.
type PlanStats struct {
	Plans  int   // plans resident
	Bytes  int64 // their route memos and position tables, as filled so far
	Hits   int64 // machines built on a plan that was already there
	Builds int64 // plans built
}

// ReadPlanStats reports the state of the process-wide plan table.
func ReadPlanStats() PlanStats {
	plans.mu.Lock()
	defer plans.mu.Unlock()
	st := PlanStats{Plans: len(plans.plans), Hits: plans.hits, Builds: plans.builds}
	memos := map[*mesh.Routes]bool{} // one per topology, shared across specs
	for _, p := range plans.plans {
		st.Bytes += p.posBytes.Load()
		if !memos[p.Routes] {
			memos[p.Routes] = true
			st.Bytes += p.Routes.Bytes()
		}
	}
	return st
}
