package mesh

import (
	"cmp"
	"slices"
)

// adjacency is a topology's link graph, immutable once built: per node its
// outgoing links sorted by (to, link) and the links incident to it in
// either direction, plus the distinct undirected node pairs that share a
// link. The per-node lists are windows of two flat arrays, laid out as in
// CSR, so a graph of any size is a few allocations. One serves every
// network over the topology (Routes.links), and a Graph routes on its own.
type adjacency struct {
	rows     [][]graphHalf // per node: its outgoing links, by (to, link)
	incident [][]int32     // per node: the links leaving or entering it
	pairs    [][2]int32    // (a, b), a < b, ascending
}

// graphHalf is one directed adjacency entry.
type graphHalf struct {
	to   int32
	link int32
}

// edgeLinks lists both directions of every undirected edge: edge e between
// a and b carries the links 2e (a→b) and 2e+1 (b→a).
func edgeLinks(edges [][2]int) func(func(link, from, to int)) {
	return func(f func(link, from, to int)) {
		for e, ed := range edges {
			f(2*e, ed[0], ed[1])
			f(2*e+1, ed[1], ed[0])
		}
	}
}

// newAdjacency lays out an n-node graph whose directed links the links
// function enumerates, as Topology.ForEachLink does. Incident lists keep
// the enumeration order.
func newAdjacency(n int, links func(func(link, from, to int))) *adjacency {
	outDeg, incDeg := make([]int, n), make([]int, n)
	total := 0
	links(func(_, from, to int) {
		outDeg[from]++
		incDeg[from]++
		incDeg[to]++
		total++
	})
	halves, inc := make([]graphHalf, total), make([]int32, 2*total)
	a := &adjacency{rows: make([][]graphHalf, n), incident: make([][]int32, n), pairs: make([][2]int32, 0, total)}
	for u := range n {
		a.rows[u], halves = halves[:0:outDeg[u]], halves[outDeg[u]:]
		a.incident[u], inc = inc[:0:incDeg[u]], inc[incDeg[u]:]
	}
	links(func(link, from, to int) {
		a.rows[from] = append(a.rows[from], graphHalf{to: int32(to), link: int32(link)})
		a.incident[from] = append(a.incident[from], int32(link))
		a.incident[to] = append(a.incident[to], int32(link))
		a.pairs = append(a.pairs, [2]int32{int32(min(from, to)), int32(max(from, to))})
	})
	for _, r := range a.rows {
		slices.SortFunc(r, func(x, y graphHalf) int {
			return cmp.Or(cmp.Compare(x.to, y.to), cmp.Compare(x.link, y.link))
		})
	}
	slices.SortFunc(a.pairs, comparePairs)
	a.pairs = slices.Clip(slices.Compact(a.pairs))
	return a
}

func comparePairs(x, y [2]int32) int {
	return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
}

// nodes returns the node count.
func (a *adjacency) nodes() int { return len(a.rows) }

// pairLinks returns the directed links from u to v, ascending: a run of u's
// row.
func (a *adjacency) pairLinks(u, v int) []graphHalf {
	r := a.rows[u]
	i, _ := slices.BinarySearchFunc(r, int32(v), func(h graphHalf, to int32) int { return cmp.Compare(h.to, to) })
	j := i
	for j < len(r) && r[j].to == int32(v) {
		j++
	}
	return r[i:j]
}

// pair returns the index of the undirected pair (lo, hi), lo < hi, in
// pairs, and whether the two nodes share a link at all.
func (a *adjacency) pair(lo, hi int) (int, bool) {
	return slices.BinarySearchFunc(a.pairs, [2]int32{int32(lo), int32(hi)}, comparePairs)
}

// walker is the scratch of reach; seen has one entry per node.
type walker struct {
	seen  []bool
	queue []int32
}

// reach walks breadth-first from src over the links whose count in down is
// zero (every link when down is nil), marking the nodes it reaches in seen,
// which the caller clears. It returns how many nodes it reached, or stops
// early once it reaches stop (pass -1 to walk src's whole component).
func (w *walker) reach(a *adjacency, down []int32, src, stop int) int {
	w.seen[src] = true
	w.queue = append(w.queue[:0], int32(src))
	for qi := 0; qi < len(w.queue); qi++ {
		for _, h := range a.rows[w.queue[qi]] {
			if (down != nil && down[h.link] != 0) || w.seen[h.to] {
				continue
			}
			w.seen[h.to] = true
			if int(h.to) == stop {
				return len(w.queue) + 1
			}
			w.queue = append(w.queue, h.to)
		}
	}
	return len(w.queue)
}
