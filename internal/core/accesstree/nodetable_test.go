package accesstree

import (
	"encoding/binary"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"diva/internal/core"
	"diva/internal/decomp"
	"diva/internal/xrand"
)

// FuzzNodeTable runs random get, write, iterate, free and restore sequences
// on the node tables of one strategy and on a plain []nodeState per
// variable, comparing the two after every step. The tree sizes are those of
// the 4×4, 8×8, 16×16 and 32×32 4-ary trees (21, 85, 341 and 1 365 nodes):
// every table is full from the start on the first, and on the others sparse
// tables grow through every page count up to the cutover to a full table.
// A restore captures a table the way a snapshot does — its nodes not at
// rest, ids ascending — and goes on with a table restored from the
// capture, as a fork does. After every step each capture must still equal
// its first copy, and no two tables, free lists or captures may share
// storage (checkOwn).
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
		var caps []captured
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
			case 8: // go on with a table restored from a capture
				c := capture(t, &tabs[v], n)
				p.put(&tabs[v])
				tabs[v] = c.restore(&p)
				caps = append(caps, c)
			}
			checkOwn(t, &p, tabs[:], caps)
			tab := &tabs[v]
			if ps := tab.pages; ps != nil && (tab.full != nil || int(ps.count) > pageNodes*int(ps.npages) || int(ps.npages) > p.maxPages) {
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

// captured is one table captured the way SnapshotState captures it, and
// a second copy of the capture to compare it with.
type captured struct {
	st, want *State
}

// capture captures table tab of an n-node tree, as SnapshotState does,
// and fails unless the capture is the table's nodes not at rest, ids
// strictly ascending.
func capture(t *testing.T, tab *nodeTable, n int) captured {
	t.Helper()
	count := tab.unrested()
	c := captured{st: &State{Vars: []VarState{{count: uint32(count)}}, treeNodes: n}}
	c.st.ids, c.st.nodes = make([]uint16, 0, count), make([]nodeState, 0, count)
	c.st.capture(tab, &c.st.Vars[0])
	ids := c.st.ids
	for i := range ids {
		if i > 0 && ids[i] <= ids[i-1] || tab.get(int(ids[i])) != c.st.nodes[i] {
			t.Fatalf("captured ids %v are not ascending or hold other states than the table", ids)
		}
	}
	if len(ids) != count {
		t.Fatalf("captured %d entries of a table with %d nodes not at rest", len(ids), count)
	}
	c.want = &State{ids: slices.Clone(ids), nodes: slices.Clone(c.st.nodes)}
	return c
}

// restore returns a table restored from the capture, as RestoreVar makes
// one.
func (c captured) restore(p *nodeTables) nodeTable { return p.restore(c.st.entries(&c.st.Vars[0])) }

// checkOwn fails unless every capture is as it was taken and every table
// has storage of its own: no page set, page or full table of one is
// another table's, on a free list of p or inside a capture.
func checkOwn(t *testing.T, p *nodeTables, tabs []nodeTable, caps []captured) {
	t.Helper()
	for _, c := range caps {
		if !slices.Equal(c.st.ids, c.want.ids) || !slices.Equal(c.st.nodes, c.want.nodes) {
			t.Fatal("a capture was written")
		}
	}
	owner := map[unsafe.Pointer]string{}
	claim := func(ptr unsafe.Pointer, who string) {
		if prev, ok := owner[ptr]; ok {
			t.Fatalf("%s and %s share storage", prev, who)
		}
		owner[ptr] = who
	}
	claimSet := func(ps *pageSet, who string) {
		claim(unsafe.Pointer(ps), who)
		for _, pg := range ps.pages[:ps.npages] {
			claim(unsafe.Pointer(pg), who)
		}
	}
	for ps := p.sets; ps != nil; ps = ps.next {
		claimSet(ps, "a free page set")
	}
	for ps := p.bags; ps != nil; ps = ps.next {
		claimSet(ps, "a free page set")
	}
	for _, f := range p.full {
		claim(unsafe.Pointer(&f[0]), "a free full table")
	}
	for i := range tabs {
		tab := &tabs[i]
		who := "table " + strconv.Itoa(i)
		if ps := tab.pages; ps != nil {
			claimSet(ps, who)
		}
		if tab.full == nil {
			continue
		}
		claim(unsafe.Pointer(&tab.full[0]), who)
		for _, c := range caps {
			if base := unsafe.SliceData(c.st.nodes); base != nil && uintptr(unsafe.Pointer(&tab.full[0]))-uintptr(unsafe.Pointer(base)) < uintptr(cap(c.st.nodes))*unsafe.Sizeof(nodeState{}) {
				t.Fatalf("%s is inside a capture", who)
			}
		}
	}
}

// TestRestoredTableOwnsItsStorage restores a sparse table, a sparse table
// whose next node cuts it over to a full one, and a full table twice from
// one capture, as a snapshot's variable is restored by two forks: one fork
// writes its table, the other frees its table unwritten, and then new
// tables are carved. The capture must stay as it was taken, both forks
// must read their own reference, no two tables may share storage, and a
// table of the freed one's size must take back its pages or its full
// table from the free lists.
func TestRestoredTableOwnsItsStorage(t *testing.T) {
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
				id := (tc.nodes - i) * 7 % tc.n // descending: a capture sorts them
				st := nodeState{edges: uint32(i + 1), toward: int8(i % 3), member: true, arrow: towardSelf}
				*p.ref(&src, id), ref[id] = st, st
			}
			if sparse := src.full == nil; sparse != (tc.name != "full") || tc.name == "cutover" && int(src.pages.npages) != p.maxPages {
				t.Fatalf("source table: sparse %v, %d of %d pages", sparse, src.pages.npages, p.maxPages)
			}
			c := capture(t, &src, tc.n)
			p.put(&src)
			tabs := []nodeTable{c.restore(&p), c.restore(&p)}
			checkOwn(t, &p, tabs, []captured{c})
			if sparse := tabs[0].full == nil; sparse != (tc.name != "full") {
				t.Fatalf("restored table: sparse %v, want %v", sparse, tc.name != "full")
			}

			// The writer writes a node the capture holds, then a new node,
			// which cuts the cutover case over to a full table.
			held, id := 7, slices.Index(ref, restNode)
			st := nodeState{edges: 1, toward: towardSelf, member: true, arrow: towardSelf}
			*p.ref(&tabs[0], held) = st
			*p.ref(&tabs[0], id) = st
			want := slices.Clone(ref)
			want[held], want[id] = st, st
			if tc.name == "cutover" && tabs[0].full == nil {
				t.Fatal("written table: not cut over to a full table")
			}
			for id := range tc.n {
				if got := tabs[0].get(id); got != want[id] {
					t.Fatalf("written fork: node %d reads %+v, want %+v", id, got, want[id])
				}
				if got := tabs[1].get(id); got != ref[id] {
					t.Fatalf("unwritten fork: node %d reads %+v, want %+v", id, got, ref[id])
				}
			}
			checkOwn(t, &p, tabs, []captured{c})

			// Freeing the unwritten fork's table hands its storage to the
			// free lists: a table of the same size takes it again.
			freed := tabs[1]
			var pages []*page
			if ps := freed.pages; ps != nil {
				pages = slices.Clone(ps.pages[:ps.npages])
			}
			p.put(&tabs[1])
			tabs[1] = p.newTable(tc.nodes)
			if again := tabs[1]; freed.full != nil && &again.full[0] != &freed.full[0] {
				t.Fatal("a table of the freed size did not take the freed full table")
			} else if ps := again.pages; ps != nil && (len(pages) != int(ps.npages) || slices.ContainsFunc(ps.pages[:ps.npages], func(pg *page) bool { return !slices.Contains(pages, pg) })) {
				t.Fatal("a table of the freed size did not take the freed pages")
			}
			for i := range 8 {
				tabs = append(tabs, p.newTable(i*pageNodes))
				for id := range tc.n {
					*p.ref(&tabs[len(tabs)-1], id) = restNode
				}
				checkOwn(t, &p, tabs, []captured{c})
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

// TestLoadStateRejectsHostileTables: LoadState refuses a table section that
// does not hold each live variable's nodes not at rest, ids strictly
// ascending below the tree's size, the root among them, each in a state its
// node can hold — and a section whose length is not what the state
// section's counts say. Every case is tried on a table a sparse table can
// hold and on one only a full table can (8×8 at4: 85 nodes, at most 48 in
// a sparse table); none may panic.
func TestLoadStateRejectsHostileTables(t *testing.T) {
	m := newTestMachine(decomp.Ary4, 8, 8, 5)
	few, all := m.AllocAt(3, 32, 0), m.AllocAt(9, 32, 0)
	if err := m.Run(func(p *core.Proc) {
		_ = p.Read(all)
		if p.ID%16 == 0 {
			_ = p.Read(few)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s := m.Strat.(*strategy)
	captured, err := s.SnapshotState([]*core.Variable{m.Var(few), m.Var(all)})
	if err != nil {
		t.Fatal(err)
	}
	st := captured.(*State)
	n, vars := len(s.t.Nodes), []core.VarState{{Present: true}, {Present: true}}
	if c, sparse := st.Vars, pageNodes*s.tables.maxPages; int(c[0].count) > sparse || int(c[1].count) <= sparse {
		t.Fatalf("tables of %d and %d nodes, at most %d in a sparse table; want one of each", c[0].count, c[1].count, sparse)
	}
	// Split the section into each variable's entries.
	section := st.AppendTables(nil)
	var tables [2][][entryBytes]byte
	for v := range tables {
		for range st.Vars[v].count {
			tables[v] = append(tables[v], [entryBytes]byte(section[:entryBytes]))
			section = section[entryBytes:]
		}
	}
	if _, err := s.LoadState(st.AppendState(nil), st.AppendTables(nil), vars); err != nil {
		t.Fatalf("the capture as taken: %v", err)
	}
	id := func(e [entryBytes]byte) int { return int(binary.LittleEndian.Uint16(e[:])) }
	setID := func(e *[entryBytes]byte, id int) { binary.LittleEndian.PutUint16(e[:], uint16(id)) }
	setWord := func(e *[entryBytes]byte, f func(uint64) uint64) {
		binary.LittleEndian.PutUint64(e[2:], f(binary.LittleEndian.Uint64(e[2:])))
	}
	for _, tc := range []struct {
		name string
		// bend rewrites one variable's entries and returns the count the
		// state section gives for them.
		bend func(es [][entryBytes]byte) ([][entryBytes]byte, int)
		want string
	}{
		{"ids not ascending", func(es [][entryBytes]byte) ([][entryBytes]byte, int) {
			es[1], es[2] = es[2], es[1]
			return es, len(es)
		}, "names tree node"},
		{"an id past the tree", func(es [][entryBytes]byte) ([][entryBytes]byte, int) {
			setID(&es[len(es)-1], n)
			return es, len(es)
		}, "names tree node 85"},
		{"more entries than nodes", func(es [][entryBytes]byte) ([][entryBytes]byte, int) {
			for len(es) <= n {
				es = append(es, es[len(es)-1])
			}
			return es, len(es)
		}, "86 node table entries"},
		{"no root", func(es [][entryBytes]byte) ([][entryBytes]byte, int) {
			return es[1:], len(es) - 1
		}, "no entry for the root"},
		{"an entry at rest", func(es [][entryBytes]byte) ([][entryBytes]byte, int) {
			setWord(&es[1], func(uint64) uint64 { return restWord })
			return es, len(es)
		}, "malformed"},
		{"a leaf with a child edge", func(es [][entryBytes]byte) ([][entryBytes]byte, int) {
			i := slices.IndexFunc(es, func(e [entryBytes]byte) bool { return s.t.Nodes[id(e)].Leaf() })
			setWord(&es[i], func(w uint64) uint64 { return w | 1<<1 })
			return es, len(es)
		}, "malformed"},
		{"a section short of the count", func(es [][entryBytes]byte) ([][entryBytes]byte, int) {
			return es[:len(es)-1], len(es)
		}, "node table section"},
		{"a section past the count", func(es [][entryBytes]byte) ([][entryBytes]byte, int) {
			return es, len(es) - 1
		}, "node table section"},
	} {
		for v, kind := range []string{"entries", "full"} {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				bad := *st
				bad.Vars = slices.Clone(st.Vars)
				var section []byte
				for u := range tables {
					es := slices.Clone(tables[u])
					if u == v {
						var count int
						es, count = tc.bend(es)
						bad.Vars[u].count = uint32(count)
					}
					for _, e := range es {
						section = append(section, e[:]...)
					}
				}
				if got, err := s.LoadState(bad.AppendState(nil), section, vars); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("LoadState = %v, %v; want an error containing %q", got != nil, err, tc.want)
				}
			})
		}
	}
}
