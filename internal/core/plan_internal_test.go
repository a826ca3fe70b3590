package core

import (
	"testing"

	"diva/internal/decomp"
	"diva/internal/mesh"
)

// TestPlanTableEvictsOldest: the table holds maxPlans plans; one more
// forgets the least recently used, and a hit counts as a use.
func TestPlanTableEvictsOldest(t *testing.T) {
	var pt planTable
	get := func(cols int) *Plan {
		t.Helper()
		return pt.get(planKey{mesh.New(1, cols), decomp.Ary2})
	}
	first := get(2)
	for cols := 3; cols < 2+maxPlans; cols++ {
		get(cols)
	}
	if get(2) != first || pt.hits != 1 || pt.builds != maxPlans {
		t.Fatalf("a full table lost its oldest plan: %d hits, %d builds", pt.hits, pt.builds)
	}
	// 1×2 was just used, so 1×3 is the oldest now: one more plan evicts it.
	get(2 + maxPlans)
	if len(pt.plans) != maxPlans {
		t.Fatalf("table holds %d plans, limit %d", len(pt.plans), maxPlans)
	}
	if get(2) != first {
		t.Error("the recently used plan was evicted")
	}
	builds := pt.builds
	if get(3); pt.builds != builds+1 {
		t.Error("the least recently used plan was not evicted")
	}
}

// TestPlanTableSharesRoutesAcrossSpecs: routes depend on the topology
// alone, so its plans under different tree specs hold one memo — and a
// plan each, with its own tree.
func TestPlanTableSharesRoutesAcrossSpecs(t *testing.T) {
	var pt planTable
	g, err := mesh.NewRandomRegular(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := pt.get(planKey{g, decomp.Ary2})
	b := pt.get(planKey{g, decomp.Ary4})
	c := pt.get(planKey{g, decomp.Ary2})
	if a == b || a != c || a.Tree == b.Tree || a.Routes != b.Routes {
		t.Fatalf("same spec same plan: %v; specs share the route memo: %v", a == c, a.Routes == b.Routes)
	}
	if other := pt.get(planKey{mesh.New(4, 4), decomp.Ary2}); other.Routes == a.Routes {
		t.Fatal("two topologies share a route memo")
	}
}

// sliceTopo is a user topology that holds a slice, so it does not compare;
// wrapTopo's type does, but a wrapTopo holding a sliceTopo panics when
// compared.
type sliceTopo struct {
	mesh.Mesh
	scratch []int
}

type wrapTopo struct{ mesh.Topology }

// TestPlanPrivateForUserTopology: only the built-in topologies are known
// to be immutable, so any other implementation — comparable or not, by
// value or by pointer — gets a plan per machine and never enters the table.
func TestPlanPrivateForUserTopology(t *testing.T) {
	inner := sliceTopo{Mesh: mesh.New(2, 2)}
	before := ReadPlanStats()
	for _, topo := range []mesh.Topology{inner, wrapTopo{inner}, &inner} {
		a, b := planFor(topo, decomp.Ary2), planFor(topo, decomp.Ary2)
		if a == b || a.Routes == b.Routes {
			t.Errorf("%T: two machines share a plan", topo)
		}
	}
	if after := ReadPlanStats(); after != before {
		t.Errorf("plan table moved: %+v, was %+v", after, before)
	}
}
