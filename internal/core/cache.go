package core

// Cache tracks the copies stored in one node's local memory module and
// implements the least-recently-used replacement the paper describes ("if
// the local memory module is full then data objects will be replaced in
// least recently used fashion").
//
// Entries are inserted by the data management strategy under the variable
// and the strategy's own name for the place holding the copy (a tree node
// for the access tree, the processor for the fixed home). When an entry is
// selected for replacement the strategy's Evictor hook gets the chance to
// refuse (for the access tree strategy, only copies whose removal keeps the
// copy component connected may go) and to send the required notification
// message.
//
// Entries are recycled through a free list and linked intrusively, so a
// copy that comes and goes costs no allocation once the cache is warm.
//
// With capacity 0 (unbounded, the paper's default configuration) the cache
// is a no-op: nothing is tracked, nothing is ever replaced.
type Cache struct {
	capacity int
	bytes    int
	proc     int     // the processor whose memory module this is
	ev       Evictor // the strategy's replacement hook (nil: nothing is evictable)
	index    map[cacheKey]*cacheEntry
	// lru is the list's sentinel: lru.next is the most recently used
	// entry, lru.prev the least recently used one.
	lru       cacheEntry
	free      *cacheEntry // recycled entries, linked through next
	evictions uint64
}

// Evictor is implemented by strategies that register copies in bounded
// caches. TryEvict is invoked when the copy of v registered under node in
// proc's memory module is selected for replacement; it must drop the copy
// (Cache.Remove) and return true, or return false if the copy cannot be
// dropped right now.
type Evictor interface {
	TryEvict(v *Variable, node, proc int) bool
}

type cacheKey struct {
	v    VarID
	node int
}

type cacheEntry struct {
	v          *Variable
	node       int
	prev, next *cacheEntry
}

// Bounded reports whether the cache enforces a capacity.
func (c *Cache) Bounded() bool { return c.capacity > 0 }

// Len returns the number of tracked entries.
func (c *Cache) Len() int { return len(c.index) }

// Evictions counts successful replacements.
func (c *Cache) Evictions() uint64 { return c.evictions }

// Insert records the copy of v held under node. Inserting an existing copy
// just refreshes it; a new one may trigger replacement.
func (c *Cache) Insert(v *Variable, node int) {
	if c.insert(v, node) {
		c.enforce()
	}
}

// InsertRestored records an entry during snapshot restore: like Insert but
// it never triggers replacement, so the captured entry set is reinstated
// verbatim — even when it exceeds capacity (entries that refused eviction
// can leave a source cache over capacity; the fork must start in exactly
// that state, and its next real Insert enforces just as the source's would).
func (c *Cache) InsertRestored(v *Variable, node int) { c.insert(v, node) }

// insert links a new entry at the front and reports whether it did; an
// existing entry is only refreshed.
func (c *Cache) insert(v *Variable, node int) bool {
	if !c.Bounded() {
		return false
	}
	if c.index == nil {
		c.index = make(map[cacheKey]*cacheEntry)
		c.lru.prev, c.lru.next = &c.lru, &c.lru
	}
	key := cacheKey{v.ID, node}
	if e, ok := c.index[key]; ok {
		c.unlink(e)
		c.pushFront(e)
		return false
	}
	e := c.free
	if e == nil {
		e = new(cacheEntry)
	} else {
		c.free = e.next
	}
	e.v, e.node = v, node
	c.pushFront(e)
	c.index[key] = e
	c.bytes += v.Size
	return true
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

// Touch marks the copy as recently used.
func (c *Cache) Touch(id VarID, node int) {
	if e, ok := c.index[cacheKey{id, node}]; ok {
		c.unlink(e)
		c.pushFront(e)
	}
}

// Remove forgets a copy (invalidation or Free). Unknown copies are ignored.
func (c *Cache) Remove(id VarID, node int) {
	key := cacheKey{id, node}
	e, ok := c.index[key]
	if !ok {
		return
	}
	c.unlink(e)
	delete(c.index, key)
	c.bytes -= e.v.Size
	*e = cacheEntry{next: c.free}
	c.free = e
}

// enforce drops least-recently-used evictable entries until the cache fits.
func (c *Cache) enforce() {
	if c.bytes <= c.capacity || c.ev == nil {
		return
	}
	// Walk from the back (least recently used). Entries that refuse
	// eviction are skipped this round; they will be retried on the next
	// insertion.
	for e := c.lru.prev; e != &c.lru && c.bytes > c.capacity; {
		prev := e.prev
		v, node := e.v, e.node
		if c.ev.TryEvict(v, node, c.proc) {
			// TryEvict is expected to remove the entry; guard against
			// implementations that do not.
			c.Remove(v.ID, node)
			c.evictions++
		}
		e = prev
	}
}
