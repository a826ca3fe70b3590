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
		topo := mesh.New(1, cols)
		p, err := pt.get(planKey{topo, decomp.Ary2}, func() (mesh.Topology, error) { return topo, nil })
		if err != nil {
			t.Fatal(err)
		}
		return p
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

// TestPlanTableSkipsHugePlans: a plan past planKeepBytes at construction
// (here the 16 MB pair table of 2 025 processors) is handed out but not
// kept.
func TestPlanTableSkipsHugePlans(t *testing.T) {
	var pt planTable
	topo := mesh.New(45, 45)
	for i := 0; i < 2; i++ {
		p, err := pt.get(planKey{topo, decomp.Ary4}, func() (mesh.Topology, error) { return topo, nil })
		if err != nil || p.Bytes() <= planKeepBytes {
			t.Fatalf("plan of %d bytes, err %v: want one past %d", p.Bytes(), err, planKeepBytes)
		}
	}
	if len(pt.plans) != 0 || pt.builds != 2 || pt.hits != 0 {
		t.Fatalf("table kept %d plans after %d builds and %d hits, want 0, 2, 0", len(pt.plans), pt.builds, pt.hits)
	}
}

// TestPlanTableSharesNamedTopology: plans found by registry name reuse the
// topology instance across tree specs — the builder runs once.
func TestPlanTableSharesNamedTopology(t *testing.T) {
	var pt planTable
	built := 0
	build := func() (mesh.Topology, error) {
		built++
		return mesh.NewRandomRegular(16, 4, 1)
	}
	name := TopoName{Name: "graph:test", Rows: 4, Cols: 4}
	a, err := pt.get(planKey{name, decomp.Ary2}, build)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := pt.get(planKey{name, decomp.Ary4}, build)
	c, _ := pt.get(planKey{name, decomp.Ary2}, build)
	if built != 1 || a.Topo != b.Topo || a == b || a != c {
		t.Fatalf("builder ran %d times; plans share topology: %v, same spec same plan: %v", built, a.Topo == b.Topo, a == c)
	}
}
