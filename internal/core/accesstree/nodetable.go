package accesstree

import "unsafe"

// nodeState is one tree node's protocol state, packed into 8 bytes.
type nodeState struct {
	edges uint32 // bit 0: parent is a member; bit i+1: child i is a member
	// toward is the data pointer: the direction of the copy component.
	// While an invalidation multicast is in flight it doubles as the
	// acknowledgment route — onInval points it at the neighbor the
	// invalidation came from, and the multicast root is the one node still
	// pointing at itself.
	toward int8
	member bool
	acks   uint8 // invalidation acknowledgments still outstanding here
	arrow  int8  // lock arrow (lock.go), same encoding as toward
}

// restNode is the state of a node at rest: no copy, no component edge, no
// acknowledgment owed, and both pointers leading to the parent. InitVar
// leaves every node off the root-to-creator path at rest, and most nodes of
// a large tree stay there for the variable's whole life.
var restNode = nodeState{toward: towardUp, arrow: towardUp}

// nodeTable is one variable's node states. A variable's protocol touches
// the path from the root to the creator's leaf, the paths its readers'
// requests and copies travel and the nodes lock requests flip an arrow at —
// a few dozen nodes of a tree of hundreds or thousands — so a table starts
// sparse: it holds only the nodes not at rest, and reading any other node
// yields restNode. A node is materialized when it is first written and is
// never removed.
//
// A sparse table keeps its nodes in insertion order in pages of pageNodes,
// found through an open-addressed index of entry numbers (Fibonacci
// hashing, linear probing) that the pages carry too, two slots a node, so
// it is at most half full. Pages never move: growing a table adds a page
// and re-indexes, and every page is interchangeable, so the pages one table
// gives back serve the next table that grows. Once the next page would make
// the table cost as much as a state per tree node, it becomes full instead:
// a slice indexed by node id, so no variable costs more than a dense table.
// No Go map: a protocol hop reads its node once per message, and a map
// lookup there cost ~15 % of the CPU.
type nodeTable struct {
	full  []nodeState // the full table; nil while sparse
	pages *pageSet    // the sparse table; nil once full
}

// A page holds pageNodes entries — entry e of a sparse table is at
// position e%pageNodes of pages[e/pageNodes] — and indexSlots slots of the
// table's index: slot h is index[h%indexSlots] of pages[h/indexSlots],
// holding 1 + an entry number, or 0 if free.
type page struct {
	ids   [pageNodes]uint16
	index [indexSlots]uint8
	slots [pageNodes]nodeState
}

// A pageSet is a sparse table, its entries in pages[:npages].
type pageSet struct {
	pages  [maxPages]*page
	count  uint8 // entries
	npages uint8
	next   *pageSet // the next free page set
}

const (
	pageNodes  = 16
	indexSlots = 2 * pageNodes
	maxPages   = 8          // a sparse table holds at most 128 nodes
	hashMul    = 0x9e3779b9 // 2^32 / the golden ratio
)

// find returns the entry number of node id in a sparse table, if it holds
// the node, and otherwise the free index slot the node would take.
func (ps *pageSet) find(id int) (e int, slot uint32, ok bool) {
	n := uint32(ps.npages) * indexSlots
	h := uint32(uint64(uint32(id)*hashMul) * uint64(n) >> 32)
	for {
		x := ps.pages[h/indexSlots%maxPages].index[h%indexSlots]
		if x == 0 {
			return 0, h, false
		}
		x--
		if ps.pages[x/pageNodes%maxPages].ids[x%pageNodes] == uint16(id) {
			return int(x), h, true
		}
		if h++; h == n {
			h = 0
		}
	}
}

// get returns the state of node id.
func (t *nodeTable) get(id int) nodeState {
	if t.full != nil {
		return t.full[id]
	}
	if e, _, ok := t.pages.find(id); ok {
		return t.pages.pages[e/pageNodes].slots[e%pageNodes]
	}
	return restNode
}

// each calls f with every node the table holds and its state: every node
// of a full table in id order, the entries of a sparse table in insertion
// order.
func (t *nodeTable) each(f func(id int, st nodeState)) {
	for id, st := range t.full {
		f(id, st)
	}
	if ps := t.pages; ps != nil {
		for e := range int(ps.count) {
			pg := ps.pages[e/pageNodes]
			f(int(pg.ids[e%pageNodes]), pg.slots[e%pageNodes])
		}
	}
}

// nodeTables carves and recycles the node tables of one strategy's
// variables: pages, page sets and full tables are carved from blocks, so
// one make serves many, and FreeVar and the cutover to a full table give
// them back for reuse. A warm machine allocates no table at all.
type nodeTables struct {
	n int // tree nodes: the length of a full table
	// maxPages is how many pages a sparse table may hold: the most that
	// cost less than a full table, 0 if even one page does not (or node ids
	// do not fit a page's uint16 ids).
	maxPages int
	// sets heads the free page sets and full holds the free full tables.
	// Free pages stay with the page set of the table that gave them back:
	// bags heads those sets, which give their pages away one by one and
	// join sets once empty. A page holds no pointer, so that the collector
	// never scans one.
	sets *pageSet
	bags *pageSet
	full [][]nodeState
	// pageBlock, setBlock and fullBlock are the unused tails of the blocks
	// fresh pages, page sets and full tables are carved from.
	pageBlock []page
	setBlock  []pageSet
	fullBlock []nodeState
}

// blockTables is how many full tables one block of any kind costs.
const blockTables = 16

func newNodeTables(n int) nodeTables {
	p := nodeTables{n: n}
	if n <= 1<<16 {
		p.maxPages = min(maxPages, (8*n-1-int(unsafe.Sizeof(pageSet{})))/int(unsafe.Sizeof(page{})))
	}
	return p
}

// blockLen is how many elements of size bytes one block holds.
func (p *nodeTables) blockLen(size int) int {
	return max(1, blockTables*8*p.n/size)
}

// pagesFor returns how many pages a table holding count nodes starts with,
// 0 for a full table.
func (p *nodeTables) pagesFor(count int) int {
	if k := max(1, (count+pageNodes-1)/pageNodes); k <= p.maxPages {
		return k
	}
	return 0
}

// newTable returns a table that holds count nodes without growing, every
// node at rest: sparse if that fits maxPages, full otherwise.
func (p *nodeTables) newTable(count int) nodeTable {
	k := p.pagesFor(count)
	if k == 0 {
		return nodeTable{full: p.newFull()}
	}
	ps := p.newSet()
	for range k {
		p.addPage(ps)
	}
	return nodeTable{pages: ps}
}

// reserve makes the blocks hold at least pages pages, sets page sets and
// full full tables, allocating exactly what is missing: a restore knows
// every table it is about to carve.
func (p *nodeTables) reserve(pages, sets, full int) {
	if len(p.pageBlock) < pages {
		p.pageBlock = make([]page, pages)
	}
	if len(p.setBlock) < sets {
		p.setBlock = make([]pageSet, sets)
	}
	if len(p.fullBlock) < full*p.n {
		p.fullBlock = make([]nodeState, full*p.n)
	}
}

func (p *nodeTables) newSet() *pageSet {
	if ps := p.sets; ps != nil {
		p.sets, ps.next = ps.next, nil
		return ps
	}
	if len(p.setBlock) == 0 {
		p.setBlock = make([]pageSet, p.blockLen(int(unsafe.Sizeof(pageSet{}))))
	}
	ps := &p.setBlock[0]
	p.setBlock = p.setBlock[1:]
	return ps
}

// newFull returns a full table, every node at rest.
func (p *nodeTables) newFull() []nodeState {
	full := p.carveFull()
	for i := range full {
		full[i] = restNode
	}
	return full
}

// carveFull returns a full table of undefined contents.
func (p *nodeTables) carveFull() []nodeState {
	if n := len(p.full); n > 0 {
		full := p.full[n-1]
		p.full = p.full[:n-1]
		return full
	}
	if len(p.fullBlock) < p.n {
		p.fullBlock = make([]nodeState, p.blockLen(8)/p.n*p.n)
	}
	full := p.fullBlock[:p.n:p.n]
	p.fullBlock = p.fullBlock[p.n:]
	return full
}

func (p *nodeTables) newPage() *page {
	if b := p.bags; b != nil {
		b.npages--
		pg := b.pages[b.npages]
		b.pages[b.npages] = nil
		if b.npages == 0 {
			p.bags, b.next, p.sets = b.next, p.sets, b
		}
		return pg
	}
	if len(p.pageBlock) == 0 {
		p.pageBlock = make([]page, p.blockLen(int(unsafe.Sizeof(page{}))))
	}
	pg := &p.pageBlock[0]
	p.pageBlock = p.pageBlock[1:]
	return pg
}

// copySparse returns a sparse table of copies of the page images imgs,
// which hold count nodes.
func (p *nodeTables) copySparse(imgs []page, count int) nodeTable {
	ps := p.newSet()
	for j := range imgs {
		ps.pages[j] = p.newPage()
		*ps.pages[j] = imgs[j]
	}
	ps.count, ps.npages = uint8(count), uint8(len(imgs))
	return nodeTable{pages: ps}
}

// addPage gives a sparse table one more page and re-indexes its entries.
func (p *nodeTables) addPage(ps *pageSet) {
	ps.pages[ps.npages] = p.newPage()
	ps.npages++
	ps.reindex()
}

// reindex rebuilds the index of a sparse table from its entries.
func (ps *pageSet) reindex() {
	for _, pg := range ps.pages[:ps.npages] {
		pg.index = [indexSlots]uint8{}
	}
	for e := 0; e < int(ps.count); e++ {
		_, h, _ := ps.find(int(ps.pages[e/pageNodes].ids[e%pageNodes]))
		ps.pages[h/indexSlots].index[h%indexSlots] = uint8(e + 1)
	}
}

// put returns the storage of a table to the free lists.
func (p *nodeTables) put(t *nodeTable) {
	if t.full != nil {
		p.full = append(p.full, t.full)
	} else {
		p.release(t)
	}
	*t = nodeTable{}
}

// release returns the page set of a sparse table, with its pages, to the
// bags.
func (p *nodeTables) release(t *nodeTable) {
	ps := t.pages
	ps.count, ps.next = 0, p.bags
	p.bags, t.pages = ps, nil
}

// ref returns node id's state for writing, materializing the node at rest
// if t does not hold it. The pointer is valid until the next ref on t,
// which may turn it into a full table.
func (p *nodeTables) ref(t *nodeTable, id int) *nodeState {
	if t.full != nil {
		return &t.full[id]
	}
	ps := t.pages
	e, h, ok := ps.find(id)
	if !ok {
		e = int(ps.count)
		if e == pageNodes*int(ps.npages) {
			if int(ps.npages) == p.maxPages {
				full := p.newFull()
				t.each(func(id int, st nodeState) { full[id] = st })
				p.release(t)
				t.full = full
				return &t.full[id]
			}
			p.addPage(ps)
			_, h, _ = ps.find(id)
		}
		pg := ps.pages[e/pageNodes]
		pg.ids[e%pageNodes], pg.slots[e%pageNodes] = uint16(id), restNode
		ps.pages[h/indexSlots].index[h%indexSlots] = uint8(e + 1)
		ps.count++
	}
	return &ps.pages[e/pageNodes].slots[e%pageNodes]
}
