package core

import (
	"reflect"
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
	Routes *mesh.Routes

	key      planKey                   // in the plan table; zero for a private plan
	mu       sync.Mutex                // serializes position-table fills
	pos      []atomic.Pointer[[]int32] // by root processor; nil = not computed
	posBytes atomic.Int64
	posMax   int64
}

// The growth limits of one plan: route links as in a network of its own,
// and as much again for position tables (a 32×32 machine's full set is
// 8 MB). Past them routes are walked per message and position tables
// computed per variable, as correct and slower.
const (
	planRouteBytes = mesh.RouteBytesMax
	planPosBytes   = 16 << 20
)

func newPlan(t mesh.Topology, spec decomp.Spec, routeBytes, posBytes int) *Plan {
	return &Plan{
		Topo:   t,
		Tree:   decomp.Build(t, spec),
		Routes: mesh.NewRoutes(t, routeBytes),
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

// Bytes estimates the memory the plan holds: the tree, the route memo and
// the position tables computed so far, plus a graph topology's tables.
func (p *Plan) Bytes() int64 {
	const nodeBytes = 128 // a decomp.Node, its boxed region and its slot in the children slab
	b := int64(nodeBytes*len(p.Tree.Nodes)+8*len(p.pos)) + p.Routes.Bytes() + p.posBytes.Load()
	if g, ok := p.Topo.(*mesh.Graph); ok {
		b += g.TableBytes()
	}
	return b
}

// TopoName identifies a topology built by a registry: the same name and
// size always denote the same network, so its plans — and through them the
// topology instance, with a graph's BFS tables — are found by name instead
// of being rebuilt.
type TopoName struct {
	Name       string
	Rows, Cols int
}

// planKey identifies a plan: topo is a TopoName, or the topology value
// itself — compared by content for the built-in families, by pointer for
// graphs.
type planKey struct {
	topo interface{}
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

const (
	maxPlans = 16
	// planKeepBytes is the most a plan may hold at construction (a graph's
	// BFS tables, the pair table of a 2 000-processor machine) and still be
	// kept: a bigger one serves the machine it was built for only.
	planKeepBytes = 16 << 20
)

var plans planTable

// find returns the plan under key, marking it used. Without one it returns
// the topology instance another spec's plan holds for the same TopoName,
// if any. Callers hold pt.mu.
func (pt *planTable) find(key planKey) (*Plan, mesh.Topology) {
	var t mesh.Topology
	for i, p := range pt.plans {
		if p.key == key {
			copy(pt.plans[i:], pt.plans[i+1:])
			pt.plans[len(pt.plans)-1] = p
			return p, nil
		}
		if _, named := key.topo.(TopoName); named && p.key.topo == key.topo {
			t = p.Topo
		}
	}
	return nil, t
}

// get returns the plan for key, building it (and, unless another plan
// already holds one, its topology) when the table has none. Plans are built
// outside the lock; of two racing builders the second adopts the first's.
func (pt *planTable) get(key planKey, build func() (mesh.Topology, error)) (*Plan, error) {
	pt.mu.Lock()
	p, t := pt.find(key)
	if p != nil {
		pt.hits++
	}
	pt.mu.Unlock()
	if p != nil {
		return p, nil
	}
	if t == nil {
		var err error
		if t, err = build(); err != nil {
			return nil, err
		}
	}
	p = newPlan(t, key.spec, planRouteBytes, planPosBytes)
	p.key = key
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if q, _ := pt.find(key); q != nil {
		pt.hits++
		return q, nil
	}
	pt.builds++
	if p.Bytes() <= planKeepBytes {
		pt.plans = append(pt.plans, p)
		if len(pt.plans) > maxPlans {
			pt.plans = append(pt.plans[:0], pt.plans[1:]...)
		}
	}
	return p, nil
}

// planFor returns the shared plan of (t, spec). A topology whose type is
// not comparable has no identity to share under and gets a plan of its own.
func planFor(t mesh.Topology, spec decomp.Spec) *Plan {
	if !reflect.TypeOf(t).Comparable() {
		return newPlan(t, spec, planRouteBytes, planPosBytes)
	}
	p, _ := plans.get(planKey{t, spec}, func() (mesh.Topology, error) { return t, nil })
	return p
}

// PlanStats describes the process-wide plan table.
type PlanStats struct {
	Plans  int   // plans resident
	Bytes  int64 // memory they hold (Plan.Bytes)
	Hits   int64 // machines built on a plan that was already there
	Builds int64 // plans built
}

// ReadPlanStats reports the state of the process-wide plan table.
func ReadPlanStats() PlanStats {
	plans.mu.Lock()
	defer plans.mu.Unlock()
	st := PlanStats{Plans: len(plans.plans), Hits: plans.hits, Builds: plans.builds}
	for _, p := range plans.plans {
		st.Bytes += p.Bytes()
	}
	return st
}
