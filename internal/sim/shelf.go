package sim

import (
	"slices"
	"sync"
)

// Spare is a set of run-transient storage that can wait on a Shelf: what a
// run needs while it goes and what holds nothing once it drains — the
// kernel's event slabs, a network's message pool, a strategy's
// transaction records.
type Spare interface {
	// Bytes is the memory the set keeps alive.
	Bytes() int
	// Trim drops storage until Bytes is at most max.
	Trim(max int)
	// Scrub clears every reference the set holds to the machine that used
	// it.
	Scrub()
}

// Shelf is a process-wide, bounded shelf of released storage sets (doc.go,
// "Storage"). A run that drained gives its set; the next run of the same
// kind takes it at its first need. A set is trimmed to the shelf's byte
// cap and scrubbed before it is shelved, at most max sets wait, and a set
// given to a full shelf pushes out the oldest, so what a shelf keeps
// resident is bounded by a constant. Sets carry a shape key: Take hands
// out only a set given under the same key, so storage shaped by one
// machine (a path buffer sized by its tree depth) never reaches a machine
// that needs another shape.
//
// sync.Pool does not fit: it drops what two collections found unused,
// which is any set while a long run is under way, and cannot bound what it
// holds.
type Shelf[S any, P interface {
	*S
	Spare
}] struct {
	mu            sync.Mutex
	sets          []keyedSet[S] // oldest first
	max, setBytes int

	adoptions, hits, misses uint64
}

type keyedSet[S any] struct {
	key int
	set S
}

// ShelfStats describes a shelf, or the sum of several. Hits and Misses
// count the requests for more storage — a slab of events, a chunk of
// messages, a slab of records — of the runs that have given their sets
// so far: served from storage they held or adopted, or by allocation.
type ShelfStats struct {
	Sets      int    // sets waiting for adoption
	Bytes     int64  // memory they keep resident
	Ceiling   int64  // the constant Bytes never exceeds
	Adoptions uint64 // runs that started on a released set
	Hits      uint64
	Misses    uint64
}

// shelves lists every shelf NewShelf made, for RunStoreStats and
// DropSpares.
var shelves struct {
	mu   sync.Mutex
	list []interface {
		Stats() ShelfStats
		drop()
	}
}

// NewShelf returns a shelf of at most sets sets of at most setBytes bytes
// each, counted in RunStoreStats.
func NewShelf[S any, P interface {
	*S
	Spare
}](sets, setBytes int) *Shelf[S, P] {
	sh := &Shelf[S, P]{max: sets, setBytes: setBytes}
	shelves.mu.Lock()
	shelves.list = append(shelves.list, sh)
	shelves.mu.Unlock()
	return sh
}

// Take removes and returns the set most recently given under key, if there
// is one.
func (sh *Shelf[S, P]) Take(key int) (S, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := len(sh.sets) - 1; i >= 0; i-- {
		if ks := sh.sets[i]; ks.key == key {
			sh.sets = slices.Delete(sh.sets, i, i+1)
			sh.adoptions++
			return ks.set, true
		}
	}
	var none S
	return none, false
}

// Give shelves set under key, trimmed and scrubbed, unless nothing is left
// of it. hits and misses are the storage requests of the run that used
// it. The caller keeps nothing of the set. The shelf trims and scrubs its
// own copy, under its lock: a set taken by address through the type
// parameter would escape, and each hand-over would allocate it.
func (sh *Shelf[S, P]) Give(key int, set S, hits, misses uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.hits += hits
	sh.misses += misses
	sh.sets = append(sh.sets, keyedSet[S]{key, set})
	last := P(&sh.sets[len(sh.sets)-1].set)
	last.Trim(sh.setBytes)
	last.Scrub()
	switch {
	case last.Bytes() == 0:
		sh.sets = slices.Delete(sh.sets, len(sh.sets)-1, len(sh.sets))
	case len(sh.sets) > sh.max:
		sh.sets = slices.Delete(sh.sets, 0, 1)
	}
}

// drop empties the shelf.
func (sh *Shelf[S, P]) drop() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sets = slices.Delete(sh.sets, 0, len(sh.sets))
}

// Stats returns the shelf's current state and counters.
func (sh *Shelf[S, P]) Stats() ShelfStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := ShelfStats{Sets: len(sh.sets), Ceiling: int64(sh.max) * int64(sh.setBytes),
		Adoptions: sh.adoptions, Hits: sh.hits, Misses: sh.misses}
	for i := range sh.sets {
		st.Bytes += int64(P(&sh.sets[i].set).Bytes())
	}
	return st
}

// RunStoreStats sums the shelves of the layers above the kernel — the
// network's and the strategies' run-transient storage and the snapshot
// store's file buffers (the kernel's own stock is StoreStats).
func RunStoreStats() ShelfStats {
	shelves.mu.Lock()
	defer shelves.mu.Unlock()
	var sum ShelfStats
	for _, sh := range shelves.list {
		st := sh.Stats()
		sum.Sets += st.Sets
		sum.Bytes += st.Bytes
		sum.Ceiling += st.Ceiling
		sum.Adoptions += st.Adoptions
		sum.Hits += st.Hits
		sum.Misses += st.Misses
	}
	return sum
}

// DropSpares empties every shelf, the kernel's stock included: the process
// gives back what finished runs left for later ones (a draining service
// does), and the next runs start on storage of their own.
func DropSpares() {
	stock.drop()
	shelves.mu.Lock()
	defer shelves.mu.Unlock()
	for _, sh := range shelves.list {
		sh.drop()
	}
}
