package core

import "diva/internal/sim"

// TxnSlab is how many transaction records a TxnArena materializes per
// slab. An arena without a shelf (per-variable records) carves one fewer:
// 64 records of 128 bytes and the allocator's 8-byte header take 9 472
// bytes, 63 fit 8 192.
const TxnSlab = 64

// TxnArena slab-allocates the strategies' transaction records, and their
// per-variable ones: one slab materializes TxnSlab records as a single
// contiguous block — the Init
// hook wires each record's companion state (its future, path buffer, ...)
// from sibling blocks it allocates alongside — so a transaction's whole
// lifetime state sits side by side and warm-up costs a few allocations
// per slab instead of a few per record. Records recycle through a free
// stack; the simulation is single-threaded, so no locking is needed.
// Callers reset record fields on acquire/release, the arena only manages
// storage.
//
// An arena with a Shelf holds transaction records, which hold nothing once
// a run drains: HandOver then gives its free stack to the shelf, and the
// next arena of the same Key takes it at its first slab request. Records
// of machine state (per-variable records, which snapshots capture) have no
// shelf and stay with their machine.
type TxnArena[T any] struct {
	// Init prepares a freshly allocated slab of records of shape Key (e.g.
	// points every record at its slot in a companion sim.Future block).
	// May be nil.
	Init func(recs []T, key int)
	// Shelf, when set, is where the records go when a run drains. Key is
	// the shape of the records (a path buffer's capacity, 0 when they have
	// none): only an arena of the same Key adopts them. RecBytes is the
	// memory one record keeps alive, companions included.
	Shelf    *sim.Shelf[txnSet[T], *txnSet[T]]
	Key      int
	RecBytes int

	free []*T

	// own is set once the arena has looked on the shelf; hits and misses
	// count the refills of its free stack, served from the shelf or by a
	// fresh slab.
	own          bool
	hits, misses uint64
}

// Acquire returns a recycled record, growing the arena by one slab when
// empty.
func (a *TxnArena[T]) Acquire() *T {
	if len(a.free) == 0 {
		a.grow()
	}
	r := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	return r
}

// grow fills the empty free stack: from the shelf at the arena's first
// need, else with a fresh slab.
func (a *TxnArena[T]) grow() {
	if !a.own {
		a.own = true
		if a.Shelf != nil {
			if set, ok := a.Shelf.Take(a.Key); ok && len(set.free) > 0 {
				a.free = set.free
				a.hits++
				return
			}
		}
	}
	a.misses++
	n := TxnSlab
	if a.Shelf == nil {
		n--
	}
	recs := make([]T, n)
	if a.Init != nil {
		a.Init(recs, a.Key)
	}
	if a.free == nil {
		a.free = make([]*T, 0, n) // not grown from nil by doubling
	}
	for i := range recs {
		a.free = append(a.free, &recs[i])
	}
}

// Release returns a record to the free stack. Safe only once nothing
// references it anymore (for the strategies: after the requester's Await
// returned). An arena with a Shelf takes only records cleared of every
// reference — value, variable, future — since they may move on to
// another machine.
func (a *TxnArena[T]) Release(r *T) {
	a.free = append(a.free, r)
}

// HandOver gives the arena's records to its shelf, if it has one, and
// leaves the arena empty; it adopts afresh at its next need. Call it only
// when a run has drained, so that every record is back on the free stack.
func (a *TxnArena[T]) HandOver() {
	if a.Shelf == nil || !a.own {
		return
	}
	set := txnSet[T]{free: a.free, recBytes: a.RecBytes}
	hits, misses := a.hits, a.misses
	a.free, a.own, a.hits, a.misses = nil, false, 0, 0
	a.Shelf.Give(a.Key, set, hits, misses)
}

// NewTxnShelf returns the process-wide shelf of the released arenas of one
// record type: at most 8 sets of at most 1 MiB each.
func NewTxnShelf[T any]() *sim.Shelf[txnSet[T], *txnSet[T]] {
	return sim.NewShelf[txnSet[T]](8, 1<<20)
}

// txnSet is a released free stack. Every record the arena ever carved is on
// it (the run drained), so its slabs are held whole.
type txnSet[T any] struct {
	free     []*T
	recBytes int
}

// Bytes is the memory the set keeps alive.
func (s *txnSet[T]) Bytes() int { return len(s.free)*s.recBytes + cap(s.free)*8 }

// Trim drops the whole set if it is over max: any one record keeps its
// slab alive, so a set is not thinned.
func (s *txnSet[T]) Trim(max int) {
	if s.Bytes() > max {
		s.free = nil
	}
}

// Scrub does nothing: Release takes only cleared records.
func (s *txnSet[T]) Scrub() {}
