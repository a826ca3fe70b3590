package core

// TxnSlab is how many transaction records a TxnArena materializes per
// slab.
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
type TxnArena[T any] struct {
	// Init prepares a freshly allocated slab (e.g. points every record at
	// its slot in a companion sim.Future block). May be nil.
	Init func(recs []T)

	free []*T
}

// Acquire returns a recycled record, growing the arena by one slab when
// empty.
func (a *TxnArena[T]) Acquire() *T {
	if len(a.free) == 0 {
		recs := make([]T, TxnSlab)
		if a.Init != nil {
			a.Init(recs)
		}
		for i := range recs {
			a.free = append(a.free, &recs[i])
		}
	}
	r := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	return r
}

// Release returns a record to the free stack. Safe only once nothing
// references it anymore (for the strategies: after the requester's Await
// returned).
func (a *TxnArena[T]) Release(r *T) {
	a.free = append(a.free, r)
}
