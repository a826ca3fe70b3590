package accesstree

import (
	"slices"
	"testing"
	"unsafe"

	"diva/internal/core"
	"diva/internal/decomp"
	"diva/internal/xrand"
)

// FuzzNodeTable runs random get, write, iterate, free and lend sequences
// on the node tables of one strategy and on a plain []nodeState per
// variable, comparing the two after every step. The tree sizes are those of
// the 4×4, 8×8, 16×16 and 32×32 4-ary trees (21, 85, 341 and 1 365 nodes):
// every table is full from the start on the first, and on the others sparse
// tables grow through every page count up to the cutover to a full table.
// A lend captures a table the way a snapshot does and goes on with a lent
// table over the capture, as a fork does; after every step each capture
// must still equal its first copy, and no table of the strategy's own and
// no free list may hold captured storage (checkLent).
func FuzzNodeTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{2, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255, 0, 128, 7, 9})
	f.Add([]byte("node tables against the dense reference, every size"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := []int{21, 85, 341, 1365}[data[0]%4]
		p := newNodeTables(n)
		if p.maxPages > 0 && p.maxPages*int(unsafe.Sizeof(page{}))+int(unsafe.Sizeof(pageSet{})) >= 8*n {
			t.Fatalf("%d-node tree: %d pages cost as much as a full table", n, p.maxPages)
		}
		const vars = 3
		var tabs [vars]nodeTable
		var lent []lentCapture
		var refs [vars][]nodeState
		reset := func(v, count int) {
			tabs[v] = p.newTable(count)
			refs[v] = make([]nodeState, n)
			for i := range refs[v] {
				refs[v][i] = restNode
			}
		}
		for v := range tabs {
			reset(v, 0)
		}
		// Each step is steered by one byte and the rolling hash of the
		// input, so that the nodes written both repeat and spread.
		h := uint64(14695981039346656037)
		for _, b := range data[1:] {
			h = (h ^ uint64(b)) * 1099511628211
			v, id := int(h>>8)%vars, int(h>>16)%n
			if b&0x30 == 0 {
				id %= 40 // revisit a few nodes
			}
			switch b % 9 {
			case 0, 1: // read
				if got := tabs[v].get(id); got != refs[v][id] {
					t.Fatalf("get(%d) = %+v, want %+v", id, got, refs[v][id])
				}
			case 2, 3, 4, 5: // write, sometimes the state at rest
				st := nodeState{edges: uint32(h >> 24), toward: int8(h >> 56), member: h>>40&1 == 1, acks: uint8(h >> 48), arrow: int8(h >> 32)}
				if b%8 == 5 {
					st = restNode
				}
				*p.ref(&tabs[v], id) = st
				refs[v][id] = st
			case 6: // iterate
				seen := make(map[int]bool)
				tabs[v].each(func(id int, st nodeState) {
					if seen[id] {
						t.Fatalf("node %d iterated twice", id)
					}
					seen[id] = true
					if st != refs[v][id] {
						t.Fatalf("iterated node %d as %+v, want %+v", id, st, refs[v][id])
					}
				})
				if len(seen) != tabs[v].held() {
					t.Fatalf("iterated %d nodes, the table holds %d", len(seen), tabs[v].held())
				}
				for id, st := range refs[v] {
					if st != restNode && !seen[id] {
						t.Fatalf("node %d is not at rest but was not iterated", id)
					}
				}
			case 7: // free, and start a new variable of some size
				p.put(&tabs[v])
				reset(v, int(h>>24)%(n+1))
			case 8: // lend: go on with a lent table over a capture
				c := lend(&tabs[v], n)
				p.put(&tabs[v])
				tabs[v] = c.table()
				lent = append(lent, c)
			}
			checkLent(t, &p, tabs[:], lent)
			tab := &tabs[v]
			if ps := tab.pages; ps != nil && ps != &lentFull && (tab.full != nil || int(ps.count) > pageNodes*int(ps.npages) || int(ps.npages) > p.maxPages) {
				t.Fatalf("table shape: full %v, %d entries in %d of at most %d pages", tab.full != nil, ps.count, ps.npages, p.maxPages)
			}
			for id := range refs[v] {
				if got := tab.get(id); got != refs[v][id] {
					t.Fatalf("node %d reads %+v, want %+v", id, got, refs[v][id])
				}
			}
		}
	})
}

// lentCapture is one table captured the way SnapshotState captures it, and
// a second copy of the capture to compare it with.
type lentCapture struct {
	st, want *State
}

// lend captures table t of an n-node tree and lends the capture its page
// set, as SnapshotState does.
func lend(t *nodeTable, n int) lentCapture {
	c := lentCapture{st: &State{Vars: []VarState{{Present: true}}, treeNodes: n}}
	c.st.capture(t, &c.st.Vars[0])
	c.st.lend()
	c.want = &State{pages: slices.Clone(c.st.pages), sets: slices.Clone(c.st.sets), full: slices.Clone(c.st.full)}
	return c
}

// table returns a lent table over the capture, as RestoreVar makes one.
func (c lentCapture) table() nodeTable { return c.st.lentTable(&c.st.Vars[0]) }

// checkLent fails unless every capture is as it was taken, lentFull holds
// no entry, and neither a table that is not lent nor a free list of p holds
// a captured page, page set or full table.
func checkLent(t *testing.T, p *nodeTables, tabs []nodeTable, lent []lentCapture) {
	t.Helper()
	if lentFull != (pageSet{lent: 1}) {
		t.Fatalf("lentFull was written: %+v", lentFull)
	}
	pages, sets, fulls := map[*page]bool{}, map[*pageSet]bool{}, map[*nodeState]bool{}
	for _, c := range lent {
		if !slices.Equal(c.st.pages, c.want.pages) || !slices.Equal(c.st.sets, c.want.sets) || !slices.Equal(c.st.full, c.want.full) {
			t.Fatal("a lent capture was written")
		}
		for i := range c.st.pages {
			pages[&c.st.pages[i]] = true
		}
		for i := range c.st.sets {
			sets[&c.st.sets[i]] = true
		}
		if len(c.st.full) > 0 {
			fulls[&c.st.full[0]] = true
		}
	}
	owned := func(ps *pageSet) {
		if sets[ps] {
			t.Fatal("a captured page set is in use as the strategy's own")
		}
		for _, pg := range ps.pages[:ps.npages] {
			if pages[pg] {
				t.Fatal("a captured page is in use as the strategy's own")
			}
		}
	}
	for i := range tabs {
		if ps := tabs[i].pages; ps == nil {
			if tabs[i].full != nil && fulls[&tabs[i].full[0]] {
				t.Fatal("a captured full table is in use as the strategy's own")
			}
		} else if ps.lent == 0 {
			owned(ps)
		}
	}
	for ps := p.bags; ps != nil; ps = ps.next {
		owned(ps)
	}
	for ps := p.sets; ps != nil; ps = ps.next {
		owned(ps)
	}
	for _, f := range p.full {
		if fulls[&f[0]] {
			t.Fatal("a captured full table is on the free list")
		}
	}
}

// TestLentTable lends a sparse table, a sparse table whose next node cuts
// it over to a full one, and a full table, as a snapshot lends its tables
// to two forks: one fork writes its table, the other frees its table
// unwritten and then carves new tables. The capture must stay as it was
// taken, both forks must read their own reference, and no carved page or
// full table may be captured storage.
func TestLentTable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		nodes int // nodes written before the capture
	}{
		{"sparse", 341, 20},
		{"cutover", 85, 48},
		{"full", 21, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newNodeTables(tc.n)
			src := p.newTable(tc.nodes)
			ref := make([]nodeState, tc.n)
			for id := range ref {
				ref[id] = restNode
			}
			for i := range tc.nodes {
				id := i * 7 % tc.n
				st := nodeState{edges: uint32(i + 1), toward: int8(i % 3), member: true, arrow: towardSelf}
				*p.ref(&src, id), ref[id] = st, st
			}
			if sparse := src.full == nil; sparse != (tc.name != "full") || tc.name == "cutover" && int(src.pages.npages) != p.maxPages {
				t.Fatalf("source table: sparse %v, %d of %d pages", sparse, src.pages.npages, p.maxPages)
			}
			c := lend(&src, tc.n)
			p.put(&src)
			written, freed := c.table(), c.table()
			tabs := []nodeTable{written, freed}
			checkLent(t, &p, tabs, []lentCapture{c})

			// The writer's first new node copies the table, cutting the
			// cutover case over to a full table.
			id := slices.Index(ref, restNode)
			st := nodeState{edges: 1, toward: towardSelf, member: true, arrow: towardSelf}
			*p.ref(&tabs[0], id) = st
			want := slices.Clone(ref)
			want[id] = st
			if tabs[0].pages != nil && tabs[0].pages.lent != 0 || tc.name == "cutover" && tabs[0].full == nil {
				t.Fatalf("written table: lent %v, full %v", tabs[0].pages != nil && tabs[0].pages.lent != 0, tabs[0].full != nil)
			}
			for id := range tc.n {
				if got := tabs[0].get(id); got != want[id] {
					t.Fatalf("written fork: node %d reads %+v, want %+v", id, got, want[id])
				}
				if got := tabs[1].get(id); got != ref[id] {
					t.Fatalf("unwritten fork: node %d reads %+v, want %+v", id, got, ref[id])
				}
			}
			checkLent(t, &p, tabs, []lentCapture{c})

			// Freeing the unwritten fork's table hands nothing to the free
			// lists, so the tables carved next are fresh.
			p.put(&tabs[1])
			for i := range 8 {
				tabs = append(tabs, p.newTable(i*pageNodes))
				for id := range tc.n {
					*p.ref(&tabs[len(tabs)-1], id) = restNode
				}
				checkLent(t, &p, tabs, []lentCapture{c})
			}
		})
	}
}

// held returns how many nodes the table holds: the entries of a sparse
// table, every node of a full one.
func (t *nodeTable) held() int {
	if t.full != nil {
		return len(t.full)
	}
	return int(t.pages.count)
}

// TestSparseAndFullTablesKeepInvariants runs the random-traffic invariant
// check on a machine whose tables stay sparse (16×16, 341 nodes) and on one
// whose tables reach the cutover to a full table (8×8, 85 nodes: three pages
// at most), and pins which representation each ends in.
func TestSparseAndFullTablesKeepInvariants(t *testing.T) {
	for _, tc := range []struct {
		name       string
		side       int
		wantSparse bool
	}{
		{"sparse/16x16", 16, true},
		{"full/8x8", 8, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestMachine(decomp.Ary4, tc.side, tc.side, 5)
			const nvars = 4
			vars := make([]core.VarID, nvars)
			for i := range vars {
				vars[i] = m.AllocAt(i*7%m.P(), 32, -1)
			}
			readers := 8 // processors that touch each variable: a few paths
			if !tc.wantSparse {
				readers = m.P() // every processor: the whole tree
			}
			if err := m.Run(func(p *core.Proc) {
				r := xrand.New(uint64(p.ID)*13 + 1)
				for step := 0; step < 8; step++ {
					vi := r.Intn(nvars)
					if p.ID%(m.P()/readers) == 0 {
						switch r.Intn(4) {
						case 0:
							p.Write(vars[vi], p.ID*100+step)
						case 1:
							p.Lock(vars[vi])
							p.Unlock(vars[vi])
						default:
							_ = p.Read(vars[vi])
						}
					}
					if step%4 == 3 {
						p.Barrier()
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			for i := range vars {
				v := m.Var(vars[i])
				checkInvariants(t, m, v, v.Data)
				if sparse := vstate(v).nodes.pages != nil; sparse != tc.wantSparse {
					t.Errorf("variable %d: sparse %v, want %v (%d nodes held)", i, sparse, tc.wantSparse, vstate(v).nodes.held())
				}
			}
		})
	}
}

// TestRowReadTableSize: a matrix block of the 32×32 at4 matmul read by one
// processor row materializes the creator's path and the paths of the 32
// readers — at most 128 nodes of the 1 365-node tree, kept in a sparse
// table of at most eight pages instead of a full table of 1 365 states.
func TestRowReadTableSize(t *testing.T) {
	m := newTestMachine(decomp.Ary4, 32, 32, 1999)
	v := m.AllocAt(0, 1024, 0)
	if err := m.Run(func(p *core.Proc) {
		if p.ID < 32 {
			_ = p.Read(v)
		}
	}); err != nil {
		t.Fatal(err)
	}
	nodes := vstate(m.Var(v)).nodes
	if nodes.pages == nil || nodes.held() > 128 {
		t.Fatalf("row-read variable: sparse %v, %d of %d nodes held; want a sparse table of at most 128",
			nodes.pages != nil, nodes.held(), len(m.Tree.Nodes))
	}
	checkInvariants(t, m, m.Var(v), 0)
}

// TestMaxPagesFromTreeSize pins the one size-based choice: how many pages a
// sparse table may hold on each tree of the benchmark's cells, and none on
// a tree whose node ids do not fit a page's uint16 ids.
func TestMaxPagesFromTreeSize(t *testing.T) {
	for n, want := range map[int]int{21: 0, 31: 0, 85: 3, 127: 4, 341: 8, 383: 8, 1365: 8, 1<<16 + 1: 0} {
		if got := newNodeTables(n).maxPages; got != want {
			t.Errorf("%d-node tree: %d pages, want %d", n, got, want)
		}
	}
}
