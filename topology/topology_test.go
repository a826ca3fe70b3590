package topology_test

import (
	"reflect"
	"strings"
	"testing"

	"diva/topology"
)

// TestBuiltinRegistry: the four interconnects must be registered under
// their flag names and build the expected processor counts from the
// canonical ROWSxCOLS size.
func TestBuiltinRegistry(t *testing.T) {
	want := []string{"fattree", "graph:degraded", "graph:er", "graph:regular", "hypercube", "mesh", "torus"}
	if got := topology.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		s, err := topology.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if s.Summary == "" {
			t.Errorf("Get(%q).Summary is empty", name)
		}
		tp, err := topology.Build(name, 8, 8)
		if err != nil {
			t.Fatalf("Build(%q, 8, 8): %v", name, err)
		}
		if tp.N() != 64 {
			t.Errorf("Build(%q, 8, 8).N() = %d, want 64", name, tp.N())
		}
	}
	// Non-square grids: direct for mesh/torus, processor count for the
	// derived topologies.
	if tp, err := topology.Build("mesh", 2, 8); err != nil || tp.N() != 16 {
		t.Errorf("Build(mesh, 2, 8) = %v, %v", tp, err)
	}
	if tp, err := topology.Build("hypercube", 2, 8); err != nil || tp.N() != 16 {
		t.Errorf("Build(hypercube, 2, 8) = %v, %v", tp, err)
	}
}

// TestGraphRegistryInvariants: every graph:* registry entry builds a
// connected topology with shortest, deterministic routes, and building
// the same entry twice yields the identical link structure (the
// constructors are pure functions of the grid size).
func TestGraphRegistryInvariants(t *testing.T) {
	names := []string{}
	for _, name := range topology.Names() {
		if strings.HasPrefix(name, "graph:") {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		t.Fatal("no graph:* entries registered")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			tp, err := topology.Build(name, 4, 4)
			if err != nil {
				t.Fatal(err)
			}
			// Build remembers graphs: the same instance again.
			if again, _ := topology.Build(name, 4, 4); again != tp {
				t.Fatal("a second Build of the same graph entry made a new instance")
			}
			// Rebuild, past Build's memory: identical link enumeration.
			s, _ := topology.Get(name)
			tp2, err := s.Build(4, 4)
			if err != nil {
				t.Fatal(err)
			}
			var links1, links2 [][3]int
			tp.ForEachLink(func(link, from, to int) { links1 = append(links1, [3]int{link, from, to}) })
			tp2.ForEachLink(func(link, from, to int) { links2 = append(links2, [3]int{link, from, to}) })
			if !reflect.DeepEqual(links1, links2) {
				t.Fatal("two builds of the same graph entry differ")
			}
			// Routes: deterministic, length == Dist, connected walk a->b.
			adj := make(map[int][]int)
			ends := make(map[int][2]int)
			for _, l := range links1 {
				adj[l[1]] = append(adj[l[1]], l[2])
				ends[l[0]] = [2]int{l[1], l[2]}
			}
			maxDist := 0
			for a := 0; a < tp.N(); a++ {
				for b := 0; b < tp.N(); b++ {
					route := tp.AppendRoute(nil, a, b)
					if len(route) != tp.Dist(a, b) {
						t.Fatalf("route %d->%d has %d links, Dist says %d",
							a, b, len(route), tp.Dist(a, b))
					}
					cur := a
					for _, l := range route {
						e, ok := ends[l]
						if !ok || e[0] != cur {
							t.Fatalf("route %d->%d broken at link %d", a, b, l)
						}
						cur = e[1]
					}
					if cur != b {
						t.Fatalf("route %d->%d ends at %d", a, b, cur)
					}
					if d := tp.Dist(a, b); d > maxDist {
						maxDist = d
					}
				}
			}
			if maxDist != tp.Diameter() {
				t.Errorf("max pair distance %d != Diameter() %d", maxDist, tp.Diameter())
			}
		})
	}
}

// TestBuildErrors: invalid sizes come back as errors naming the problem.
func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols int
		want       string
	}{
		{"mesh", 0, 4, "must be positive"},
		{"torus", 4, -1, "must be positive"},
		{"hypercube", 3, 3, "power-of-two"},
		{"fattree", 5, 5, "power-of-two"},
		{"ring", 4, 4, "unknown topology"},
	}
	for _, tc := range cases {
		_, err := topology.Build(tc.name, tc.rows, tc.cols)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Build(%q, %d, %d): err = %v, want mention of %q",
				tc.name, tc.rows, tc.cols, err, tc.want)
		}
	}
}

// TestConstructorValidation: the direct constructors validate their
// arguments instead of panicking like the internal ones.
func TestConstructorValidation(t *testing.T) {
	if _, err := topology.NewMesh(0, 1); err == nil {
		t.Error("NewMesh(0, 1) succeeded")
	}
	if _, err := topology.NewTorus(1, 0); err == nil {
		t.Error("NewTorus(1, 0) succeeded")
	}
	if _, err := topology.NewHypercube(-1); err == nil {
		t.Error("NewHypercube(-1) succeeded")
	}
	if _, err := topology.NewFatTree(25); err == nil {
		t.Error("NewFatTree(25) succeeded")
	}
	if hc, err := topology.NewHypercube(5); err != nil || hc.N() != 32 {
		t.Errorf("NewHypercube(5) = %v, %v", hc, err)
	}
}

// TestRegisterValidation: registration mistakes are programming errors and
// panic.
func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	builder := func(rows, cols int) (topology.Topology, error) {
		return topology.NewMesh(rows, cols)
	}
	mustPanic("empty name", func() { topology.Register(topology.Spec{Build: builder}) })
	mustPanic("nil builder", func() { topology.Register(topology.Spec{Name: "x"}) })
	mustPanic("duplicate", func() { topology.Register(topology.Spec{Name: "mesh", Build: builder}) })
}

// TestBuildForgetsOldestGraph: Build remembers a fixed number of graphs;
// past it the oldest is built anew.
func TestBuildForgetsOldestGraph(t *testing.T) {
	first, err := topology.Build("graph:er", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for cols := 4; cols < 12; cols++ {
		if _, err := topology.Build("graph:er", 3, cols); err != nil {
			t.Fatal(err)
		}
	}
	if again, _ := topology.Build("graph:er", 3, 3); again == first {
		t.Fatal("Build still holds the graph built nine builds ago")
	}
	recent, _ := topology.Build("graph:er", 3, 11)
	if again, _ := topology.Build("graph:er", 3, 11); again != recent {
		t.Fatal("a recent graph was not remembered")
	}
}
