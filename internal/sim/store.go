package sim

import (
	"math/bits"
	"unsafe"
)

// evStore is a kernel's one storage layer for events (doc.go, "Storage").
// Every []event the kernel queues on — the front, tail and rung buckets of
// the ladder, the epoch-sort scratch — is a power-of-two slab drawn from the size-classed free lists here and put
// back the moment it is consumed; the callback payload table, its free
// stack, the spread scratch and retired rung structs live here too. A slab
// is owned by exactly one holder at a time: whoever got it from get (or
// grow) until that holder hands it to put. When Run returns with nothing
// pending the whole store is scrubbed of references and handed to the
// process-wide stock, a Shelf, where the next kernel finds it on its first
// need.
type evStore struct {
	pay     []payload // callback payload slots referenced by event.slot
	payFree []int32   // recycled payload slots

	// free[c] stacks the idle slabs of capacity 1<<(c+slabMinShift), each
	// with len 0. clean[c] counts the slabs at the bottom of free[c] not
	// handed out since they were last scrubbed — the low-water mark of the
	// stack — so a small run on a large adopted set scrubs only what it
	// touched.
	free  [slabClasses][][]event
	clean [slabClasses]int32

	spare   []*lrung // retired rung structs; every bucket nil
	sortBuf []event  // epoch-sort scratch, a slab
	idxBuf  []uint8  // spread's scratch bucket indices

	// own is set once the store has looked in the stock. From then on
	// growth allocates.
	own bool

	hits, misses uint64 // slab requests served from free / by make
}

const (
	slabMinShift = 3  // smallest slab: 8 events, 256 bytes
	slabMaxShift = 20 // larger requests are allocated exactly and not kept
	slabClasses  = slabMaxShift - slabMinShift + 1

	// The stock's bounds. A released set is trimmed to stockSetBytes,
	// largest slabs first, and at most stockSets sets wait for adoption,
	// so what the stock keeps resident is a constant, ≤ 32 MiB.
	stockSets     = 4
	stockSetBytes = 8 << 20
)

const (
	eventBytes   = int(unsafe.Sizeof(event{}))
	payloadBytes = int(unsafe.Sizeof(payload{}))
	rungBytes    = int(unsafe.Sizeof(lrung{}))
)

// get returns an empty slab of capacity ≥ n (a power of two, at least
// 1<<slabMinShift). It is the slow path of every growth: the first call
// on a fresh store is where the stock is consulted.
func (s *evStore) get(n int) []event {
	c := 0
	if n > 1<<slabMinShift {
		c = bits.Len(uint(n-1)) - slabMinShift
		if c >= slabClasses {
			return make([]event, 0, n)
		}
	}
	if !s.own {
		s.adopt()
	}
	if l := s.free[c]; len(l) > 0 {
		top := len(l) - 1
		b := l[top]
		s.free[c] = l[:top]
		if int32(top) < s.clean[c] {
			s.clean[c] = int32(top)
		}
		s.hits++
		return b
	}
	s.misses++
	return make([]event, 0, 1<<(c+slabMinShift))
}

// put takes back a slab its holder has consumed. Anything below the
// smallest class (nil, in practice) is ignored.
func (s *evStore) put(b []event) {
	c := bits.Len(uint(cap(b))) - 1 - slabMinShift
	if c < 0 || c >= slabClasses {
		return
	}
	s.free[c] = append(s.free[c], b[:0])
}

// add appends e to b: a plain in-capacity append, the store touched only
// when b is full.
func (s *evStore) add(b []event, e event) []event {
	if len(b) == cap(b) {
		b = s.grow(b)
	}
	return append(b, e)
}

// grow moves b's events to a slab of twice the capacity and puts b back.
func (s *evStore) grow(b []event) []event {
	nb := s.get(2 * cap(b))[:len(b)]
	copy(nb, b)
	s.put(b)
	return nb
}

// Bytes is the memory the set keeps alive.
func (s *evStore) Bytes() int {
	n := cap(s.pay)*payloadBytes + cap(s.payFree)*4 + cap(s.idxBuf) + len(s.spare)*rungBytes
	for c := range s.free {
		n += len(s.free[c]) * (eventBytes << (c + slabMinShift))
	}
	return n
}

// Trim drops storage until the set is within max bytes: slabs from the
// largest class down, and the payload table only if it alone is over.
func (s *evStore) Trim(max int) {
	over := s.Bytes() - max
	for c := slabClasses - 1; c >= 0 && over > 0; c-- {
		l := s.free[c]
		for len(l) > 0 && over > 0 {
			l[len(l)-1] = nil
			l = l[:len(l)-1]
			over -= eventBytes << (c + slabMinShift)
		}
		s.free[c] = l
		if int32(len(l)) < s.clean[c] {
			s.clean[c] = int32(len(l))
		}
	}
	if over > 0 {
		s.pay, s.payFree, s.idxBuf, s.spare = nil, nil, nil, nil
	}
}

// Scrub clears every reference the set could keep alive — the *Proc of
// stale events in slabs handed out since the last scrub, and hfn and arg
// of used payload slots — so the machine that ran on it is collectable
// while the set waits in the stock.
func (s *evStore) Scrub() {
	for c := range s.free {
		l := s.free[c]
		for _, b := range l[s.clean[c]:] {
			clear(b[:cap(b)])
		}
		s.clean[c] = int32(len(l))
	}
	clear(s.pay)
	s.pay, s.payFree = s.pay[:0], s.payFree[:0]
}

// stock is the process-wide shelf of released sets: at most stockSets of
// at most stockSetBytes each.
var stock = &Shelf[evStore, *evStore]{max: stockSets, setBytes: stockSetBytes}

// adopt takes the most recently released set, if there is one. It runs at
// the store's first slab request, so the store is empty but for the
// payload slots of events scheduled before that (Kernel.slot grows the
// table by plain append: a call there would cost its inlining); they move
// into the adopted table.
func (s *evStore) adopt() {
	s.own = true
	set, ok := stock.Take(0)
	if !ok {
		return
	}
	if len(s.pay) <= cap(set.pay) {
		set.pay = append(set.pay[:0], s.pay...)
		set.payFree = append(set.payFree[:0], s.payFree...)
	} else {
		set.pay, set.payFree = s.pay, s.payFree
	}
	set.own = true
	*s = set
}

// release hands the store to the stock and leaves it empty. The caller
// has put back every slab it held.
func (s *evStore) release() {
	if !s.own {
		return // never needed storage: nothing to give
	}
	s.put(s.sortBuf)
	s.sortBuf = nil
	hits, misses := s.hits, s.misses
	s.own, s.hits, s.misses = false, 0, 0
	stock.Give(0, *s, hits, misses)
	*s = evStore{}
}

// StoreStats returns the state and counters of the process-wide stock of
// kernel event storage. Hits and Misses count slab requests (free list
// vs. allocation) of the kernels that have handed their store over so far.
func StoreStats() ShelfStats { return stock.Stats() }
