package core

// TxnSlab is the most records a TxnArena materializes per slab.
const TxnSlab = 64

// TxnArena slab-allocates a machine's small records — the strategies'
// transaction records, and the per-variable ones: the variable records
// and the strategies' protocol state. One slab materializes its records as
// a single contiguous block — the Init hook wires each record's companion
// state (its future, path buffer, ...) from sibling blocks it allocates
// alongside — so a record costs a fraction of an allocation and a
// transaction's whole lifetime state sits side by side. Slabs double from
// txnSlabMin to TxnSlab records, so a machine with a handful of records
// pays for no big first block. Released records recycle through a free
// stack; the simulation is single-threaded, so no locking is needed.
// Callers reset record fields on acquire/release, the arena only manages
// storage.
type TxnArena[T any] struct {
	// Init prepares a freshly allocated slab (e.g. points every record at
	// its slot in a companion sim.Future block). May be nil.
	Init func(recs []T)

	free []*T
	slab []T // records of the newest slab not handed out yet
	grow int // length of the newest slab
}

const txnSlabMin = 8

// Acquire returns a recycled record, or the next one of the newest slab,
// growing the arena by one slab when that is used up.
func (a *TxnArena[T]) Acquire() *T {
	if n := len(a.free); n > 0 {
		r := a.free[n-1]
		a.free = a.free[:n-1]
		return r
	}
	if len(a.slab) == 0 {
		a.grow = min(max(txnSlabMin, 2*a.grow), TxnSlab)
		a.slab = make([]T, a.grow)
		if a.Init != nil {
			a.Init(a.slab)
		}
	}
	r := &a.slab[0]
	a.slab = a.slab[1:]
	return r
}

// Release returns a record to the free stack. Safe only once nothing
// references it anymore (for the strategies: after the requester's Await
// returned).
func (a *TxnArena[T]) Release(r *T) {
	a.free = append(a.free, r)
}
