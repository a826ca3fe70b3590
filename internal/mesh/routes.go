package mesh

import (
	"sync"
	"sync/atomic"
)

// Routes memoizes a topology's deterministic route per (src, dst) pair:
// routing every message through AppendRoute's coordinate walk was ~15% of
// the Barnes-Hut profile, a table load is not. A route is a pure function
// of the pair, so one Routes serves every network over the topology — all
// machines, forks and requests of the process — and it does not matter
// which of them computes an entry.
//
// A full memo is far too large to complete up front (~89 MB on a 32×32
// mesh), so entries fill on first use and are published once: the filler,
// holding mu, writes the links into an append-only chunk that never moves
// and then stores the packed entry atomically; readers load the entry
// without a lock (a plain load on amd64) and see the links it names.
//
// Memory is bounded by constants: no table past routeTableMax pairs, no
// route longer than 255 links, no chunk past the byte limit given at
// construction. What the memo cannot hold is walked per message.
type Routes struct {
	t Topology
	n int // t.N(): the table's row stride
	// tab packs chunk<<24 | offset<<8 | length per pair; 0 = not published.
	tab []atomic.Uint32

	mu        sync.Mutex
	chunks    [routeChunks][]int32 // chunk i is written once, before any entry names it
	cur       int                  // chunk being filled
	used      int                  // links written into chunks[cur]
	linkBytes atomic.Int64         // size of the chunks allocated so far
	maxBytes  int64                // its limit
	full      atomic.Bool          // the limit was reached: nothing more is stored

	adjOnce sync.Once
	adj     *adjacency // the topology's link graph, see links
}

const (
	// routeTableMax is the largest pair table (4 bytes a pair, 16 MB): past
	// ~2k nodes the table would dwarf the simulation itself, so huge
	// machines keep the per-message route walk.
	routeTableMax = 1 << 22
	// A chunk holds at most 1<<16 links (the 16 offset bits of an entry;
	// the first holds routeChunkMin, each next one twice the last) and an
	// entry names one of at most routeChunks (its 8 chunk bits).
	routeChunkMin = 1 << 10
	routeChunkLen = 1 << 16
	routeChunks   = 256
)

// NewRoutes returns an empty memo for t holding at most maxBytes of links.
func NewRoutes(t Topology, maxBytes int) *Routes {
	r := &Routes{t: t, n: t.N(), maxBytes: int64(maxBytes)}
	if r.n*r.n <= routeTableMax {
		r.tab = make([]atomic.Uint32, r.n*r.n)
	}
	return r
}

// Bytes returns the memory the memo holds: the pair table and the chunks
// allocated so far.
func (r *Routes) Bytes() int64 { return int64(4*len(r.tab)) + r.linkBytes.Load() }

// get returns the published route of (src, dst), nil when there is none.
func (r *Routes) get(src, dst int) []int32 {
	if r.tab == nil {
		return nil
	}
	ent := r.tab[src*r.n+dst].Load()
	if ent == 0 {
		return nil
	}
	off := ent >> 8 & 0xffff
	return r.chunks[ent>>24][off : off+ent&0xff]
}

// publish stores path as the route of (src, dst) and returns the stored
// copy — the one an earlier filler stored, if any. It returns nil when the
// memo cannot hold the route: no table, more than 255 links, or the byte
// limit reached.
func (r *Routes) publish(src, dst int, path []int) []int32 {
	if r.tab == nil || len(path) == 0 || len(path) > 0xff || r.full.Load() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.get(src, dst); p != nil {
		return p
	}
	if r.chunks[r.cur] == nil || r.used+len(path) > len(r.chunks[r.cur]) {
		next := r.cur
		if r.chunks[next] != nil {
			next++
		}
		// Chunks double up to the full 256 KB, so a small topology's memo
		// stays near the size of the routes it holds.
		size := min(routeChunkMin<<min(next, 6), routeChunkLen)
		if next == routeChunks || r.linkBytes.Load()+int64(4*size) > r.maxBytes {
			r.full.Store(true)
			return nil
		}
		r.chunks[next] = make([]int32, size)
		r.cur, r.used = next, 0
		r.linkBytes.Add(int64(4 * size))
	}
	p := r.chunks[r.cur][r.used : r.used+len(path) : r.used+len(path)]
	for i, li := range path {
		p[i] = int32(li)
	}
	r.tab[src*r.n+dst].Store(uint32(r.cur)<<24 | uint32(r.used)<<8 | uint32(len(path)))
	r.used += len(path)
	return p
}

// links returns the topology's link graph, built on first use: only
// networks with faults and fault draws need it. A Graph's own is shared.
func (r *Routes) links() *adjacency {
	r.adjOnce.Do(func() {
		if g, ok := r.t.(*Graph); ok {
			r.adj = g.adj
		} else {
			r.adj = newAdjacency(r.t.Nodes(), r.t.ForEachLink)
		}
	})
	return r.adj
}
