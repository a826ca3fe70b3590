// Package topology is the public façade over the simulator's interconnect
// implementations: the 2D mesh of the paper's Parsytec GCel, the 2D torus,
// the hypercube and the binary fat-tree, plus a name-keyed registry through
// which topologies are selectable by string — from a config file or a CLI
// flag — without importing their packages.
//
// All registry builders take the canonical ROWSxCOLS size of the paper's
// platform: the mesh and the torus use the dimensions directly, while the
// hypercube and the fat-tree derive their size from the processor count
// rows*cols, which must then be a power of two.
//
// Applications embedding the simulator can add their own interconnects:
// implement Topology (see the interface contract) and Register a builder
// under a fresh name; every data management strategy runs on it unchanged.
package topology

import (
	"fmt"
	"math/bits"
	"sync"

	"diva/internal/mesh"
	"diva/internal/registry"
)

// The interconnect types, re-exported by alias so embedders never import
// diva/internal/... directly.
type (
	// Topology abstracts the interconnect of the simulated machine: a set
	// of processor nodes, directed links with stable ids, and a
	// deterministic shortest-path route between any two processors.
	Topology = mesh.Topology
	// Mesh is the paper's platform: an R×C mesh with row-major processor
	// ids and deterministic XY wormhole routing.
	Mesh = mesh.Mesh
	// Torus is the mesh with wrap-around links.
	Torus = mesh.Torus
	// Hypercube is the d-dimensional binary cube with e-cube routing.
	Hypercube = mesh.Hypercube
	// FatTree is the binary fat-tree with switch nodes, parallel links and
	// deterministic d-mod-k routing.
	FatTree = mesh.FatTree
	// Graph is a general connected graph with precomputed deterministic
	// BFS shortest-path routes: the escape hatch from regular
	// interconnects (random-regular and Erdős–Rényi nets, degraded
	// meshes, or any edge list via NewGraph).
	Graph = mesh.Graph
	// Coord addresses a mesh/torus processor by row and column.
	Coord = mesh.Coord
)

// NewMesh returns an R×C mesh. Dimensions must be positive.
func NewMesh(rows, cols int) (Mesh, error) {
	if rows <= 0 || cols <= 0 {
		return Mesh{}, fmt.Errorf("topology: mesh dimensions must be positive, have %dx%d", rows, cols)
	}
	return mesh.New(rows, cols), nil
}

// NewTorus returns an R×C torus. Dimensions must be positive.
func NewTorus(rows, cols int) (Torus, error) {
	if rows <= 0 || cols <= 0 {
		return Torus{}, fmt.Errorf("topology: torus dimensions must be positive, have %dx%d", rows, cols)
	}
	return mesh.NewTorus(rows, cols), nil
}

// NewHypercube returns a hypercube of the given dimension (2^dim
// processors, 0 <= dim <= 30).
func NewHypercube(dim int) (Hypercube, error) {
	if dim < 0 || dim > 30 {
		return Hypercube{}, fmt.Errorf("topology: hypercube dimension must be in [0, 30], have %d", dim)
	}
	return mesh.NewHypercube(dim), nil
}

// NewFatTree returns a binary fat-tree of the given height (2^height
// hosts, 0 <= height <= 24).
func NewFatTree(height int) (FatTree, error) {
	if height < 0 || height > 24 {
		return FatTree{}, fmt.Errorf("topology: fat-tree height must be in [0, 24], have %d", height)
	}
	return mesh.NewFatTree(height), nil
}

// NewGraph builds a general-graph topology from an undirected edge list
// over n nodes. The graph must be simple and connected; routes are
// deterministic BFS shortest paths.
func NewGraph(name string, n int, edges [][2]int) (*Graph, error) {
	return mesh.NewGraph(name, n, edges)
}

// NewRandomRegular builds a connected random d-regular graph over n nodes
// from the seed (n*d must be even).
func NewRandomRegular(n, d int, seed uint64) (*Graph, error) {
	return mesh.NewRandomRegular(n, d, seed)
}

// NewErdosRenyi builds a connected Erdős–Rényi graph over n nodes with the
// given average degree from the seed (components are bridged
// deterministically).
func NewErdosRenyi(n int, avgDegree float64, seed uint64) (*Graph, error) {
	return mesh.NewErdosRenyi(n, avgDegree, seed)
}

// NewDegradedMesh builds a rows×cols mesh with drop links removed at
// random from the seed, keeping the graph connected.
func NewDegradedMesh(rows, cols, drop int, seed uint64) (*Graph, error) {
	return mesh.NewDegradedMesh(rows, cols, drop, seed)
}

// Builder constructs a topology from the canonical ROWSxCOLS machine size.
// Builders for non-grid topologies derive their shape from the processor
// count rows*cols. A builder is a pure function of the size: Build may hand
// out what it returned before.
type Builder func(rows, cols int) (Topology, error)

// Spec is one registry entry: a named, documented topology builder.
type Spec struct {
	// Name is the registry key ("mesh", "torus", ...), as used by
	// -topology flags and configuration files.
	Name string
	// Summary is a one-line description for help texts.
	Summary string
	// Build constructs the topology for a machine size.
	Build Builder
}

var reg = registry.New[Spec]("topology")

// Register adds a topology to the registry. Registration happens at
// program initialization (from an init function, like image format or SQL
// driver registration), so programming errors — an empty name, a nil
// builder, a duplicate — panic rather than returning an error.
func Register(s Spec) {
	if s.Name == "" || s.Build == nil {
		panic("topology: Register needs a name and a builder")
	}
	reg.Register(s.Name, s)
}

// Get returns the registered topology spec for name. The error of an
// unknown name lists the registered alternatives.
func Get(name string) (Spec, error) { return reg.Get(name) }

// Build resolves name through the registry and builds the topology for the
// canonical ROWSxCOLS machine size. A graph is immutable once built and a
// registered name denotes one per size, so the graphs built last are
// remembered and handed out again: their BFS tables are computed once, and
// machines selecting the same named graph share one instance and, through
// it, one machine plan.
func Build(name string, rows, cols int) (Topology, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	key := graphKey{name, rows, cols}
	if g := graphs.get(key, nil); g != nil {
		return g, nil
	}
	t, err := s.Build(rows, cols)
	if g, ok := t.(*Graph); ok && err == nil {
		return graphs.get(key, g), nil
	}
	return t, err
}

type graphKey struct {
	name       string
	rows, cols int
}

// graphMemo remembers the graphs Build built last.
type graphMemo struct {
	mu     sync.Mutex
	recent [8]struct {
		key graphKey
		g   *Graph
	}
	next int
}

var graphs graphMemo

// get returns the graph remembered under key. Without one it remembers
// built, if given, in place of the oldest — of two racing builders the
// second adopts the first's graph.
func (m *graphMemo) get(key graphKey, built *Graph) *Graph {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range m.recent {
		if b.key == key {
			return b.g
		}
	}
	if built != nil {
		e := &m.recent[m.next%len(m.recent)]
		e.key, e.g = key, built
		m.next++
	}
	return built
}

// Names returns the registered topology names, sorted.
func Names() []string { return reg.Names() }

// pow2Dim returns log2(rows*cols) for the builders whose size is derived
// from the processor count.
func pow2Dim(kind string, rows, cols int) (int, error) {
	if rows <= 0 || cols <= 0 {
		return 0, fmt.Errorf("topology: %s size must be positive, have %dx%d", kind, rows, cols)
	}
	n := rows * cols
	if n&(n-1) != 0 {
		return 0, fmt.Errorf("topology: %s needs a power-of-two processor count, have %d", kind, n)
	}
	return bits.Len(uint(n)) - 1, nil
}

func init() {
	Register(Spec{
		Name:    "mesh",
		Summary: "2D mesh (the paper's Parsytec GCel platform)",
		Build: func(rows, cols int) (Topology, error) {
			m, err := NewMesh(rows, cols)
			if err != nil {
				return nil, err
			}
			return m, nil
		},
	})
	Register(Spec{
		Name:    "torus",
		Summary: "2D torus: the mesh with wrap-around links",
		Build: func(rows, cols int) (Topology, error) {
			t, err := NewTorus(rows, cols)
			if err != nil {
				return nil, err
			}
			return t, nil
		},
	})
	Register(Spec{
		Name:    "hypercube",
		Summary: "binary hypercube with e-cube routing (rows*cols must be a power of two)",
		Build: func(rows, cols int) (Topology, error) {
			dim, err := pow2Dim("hypercube", rows, cols)
			if err != nil {
				return nil, err
			}
			h, err := NewHypercube(dim)
			if err != nil {
				return nil, err
			}
			return h, nil
		},
	})
	// The graph:* entries are deterministic irregular interconnects: each
	// builder is a pure function of the machine size (the construction
	// seed is fixed and mixed with the processor count), so a named graph
	// topology denotes exactly one graph — runs, forks and registries all
	// agree on its routes.
	const graphSeed = 0x67726170685f3842 // "graph_8B"
	Register(Spec{
		Name:    "graph:regular",
		Summary: "random 4-regular graph over rows*cols nodes (fixed construction seed)",
		Build: func(rows, cols int) (Topology, error) {
			if rows <= 0 || cols <= 0 {
				return nil, fmt.Errorf("topology: graph size must be positive, have %dx%d", rows, cols)
			}
			n := rows * cols
			return mesh.NewRandomRegular(n, 4, graphSeed^uint64(n))
		},
	})
	Register(Spec{
		Name:    "graph:er",
		Summary: "Erdős–Rényi graph over rows*cols nodes, average degree 4, bridged connected (fixed construction seed)",
		Build: func(rows, cols int) (Topology, error) {
			if rows <= 0 || cols <= 0 {
				return nil, fmt.Errorf("topology: graph size must be positive, have %dx%d", rows, cols)
			}
			n := rows * cols
			return mesh.NewErdosRenyi(n, 4, graphSeed^uint64(n))
		},
	})
	Register(Spec{
		Name:    "graph:degraded",
		Summary: "rows*cols mesh with ~10% of its links removed, still connected (fixed construction seed)",
		Build: func(rows, cols int) (Topology, error) {
			if rows <= 0 || cols <= 0 {
				return nil, fmt.Errorf("topology: graph size must be positive, have %dx%d", rows, cols)
			}
			drop := (rows*(cols-1) + cols*(rows-1)) / 10
			return mesh.NewDegradedMesh(rows, cols, drop, graphSeed^uint64(rows*cols))
		},
	})
	Register(Spec{
		Name:    "fattree",
		Summary: "binary fat-tree with switch nodes and d-mod-k routing (rows*cols must be a power of two)",
		Build: func(rows, cols int) (Topology, error) {
			h, err := pow2Dim("fat-tree", rows, cols)
			if err != nil {
				return nil, err
			}
			ft, err := NewFatTree(h)
			if err != nil {
				return nil, err
			}
			return ft, nil
		},
	})
}
