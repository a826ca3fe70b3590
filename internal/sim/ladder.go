package sim

import (
	"math"
	"math/bits"
)

// ladderQueue is the kernel's one event queue: a ladder/calendar queue with
// an O(1) sorted-epoch front, rung buckets partitioned by timestamp, and an
// unsorted overflow tail.
// Amortized it does O(1) work per event — every event is appended to a
// bucket or the tail a bounded number of times and participates in exactly
// one sort whose cost is shared by its whole epoch — where a heap pays
// O(log n) sift traffic on every push and pop. Pop order is provably the
// strict (t, seq) order; the test-only 4-ary heap (heapq_test.go) is the
// differential reference pinning that claim (ladder_test.go).
//
// Structure, nearest times first:
//
//	front   sorted []event, consumed from the head: the current "epoch".
//	        All queue minima live here; pop is an index increment.
//	rungs   a stack of rungs, each splitting a time interval into
//	        lqBuckets equal-width buckets of unsorted events. rungs[d+1]
//	        always refines one bucket of rungs[d], so the remaining
//	        ranges nest: front < rungs[deepest] < ... < rungs[0] < tail.
//	tail    unsorted far-future events beyond the shallowest rung.
//
// Invariants (the exactness argument):
//
//  1. Every event in front has t < frontEnd; every event in a rung lies
//     in that rung's unconsumed range (above frontEnd and every deeper
//     rung, below the rung's end); every tail event has t >= the
//     shallowest rung's end (or >= frontEnd when no rungs exist). The
//     partition is decided with canonical bucket-edge comparisons
//     (edge(i) = start + width*i, computed identically on every path),
//     so floating-point rounding can never place an event on the wrong
//     side of a boundary.
//  2. Pops only ever come from the sorted front, and the front is
//     refilled only when empty — from the next nonempty bucket of the
//     deepest rung (sorted by (t, seq)), recursively spreading
//     oversized buckets into child rungs, or by converting the tail
//     into a fresh rung. By (1) the refill holds exactly the globally
//     smallest remaining events.
//  3. Ties are broken by seq everywhere a sort or an insertion happens,
//     and equal-t events can never straddle a partition boundary in the
//     wrong order: boundaries are half-open with canonical comparisons,
//     and any region consumed earlier only ever held events scheduled
//     earlier (seq is globally monotone).
//
// Pushes below frontEnd insert into the sorted front (binary search +
// memmove); a front grown past lqFrontCap spills into a fresh deepest
// rung so the insertion cost stays bounded.
//
// Dead entries: a timer the kernel canceled stays queued with its payload
// slot cleared. The queue drops it when it materializes the entry's bucket
// or tail and when it pops it, so pop returns live events only, and len
// counts them only.
//
// Storage: front, tail and every bucket are slabs of the kernel's evStore
// (store.go). A tier holds a slab only while it holds events: the consumed
// front, a bucket spread into a child rung and a converted tail go back to
// the store at once, and an empty bucket is nil.
type ladderQueue struct {
	n    int // total entries across front, rungs and tail
	dead int // entries among n whose payload slot is dead (dropDead)

	front    []event // sorted ascending by (t, seq), consumed from fh
	fh       int     // head index into front
	frontEnd Time    // exclusive time bound of the front partition

	rungs []*lrung // rungs[len-1] is the deepest (currently consumed)

	tail []event // unsorted overflow beyond the shallowest rung

	st *evStore // slabs, rung structs, sort and spread scratch
}

const (
	lqBuckets    = 32 // buckets per rung
	lqSpawn      = 64 // bucket/tail size beyond which it becomes a rung
	lqFrontCap   = 32 // live front size beyond which a push spills it
	lqMaxRungs   = 12 // depth cap; beyond it buckets are sorted as-is
	lqSmallEpoch = 24 // epoch size at or below which insertion sort runs directly
)

// lrung splits [start, end) into lqBuckets equal-width buckets. occ is
// the nonempty-bucket bitmask: bit b set iff bkts[b] holds events, so
// consumed buckets need no cursor and finding the next epoch is one
// TrailingZeros instead of a scan.
type lrung struct {
	start Time
	width Time
	end   Time
	n     int    // events remaining across all buckets
	occ   uint32 // nonempty-bucket bits (lqBuckets <= 32)
	bkts  [lqBuckets][]event
}

// edge returns the canonical lower boundary of bucket i. Every partition
// decision compares against this exact expression, so all placements
// agree even when (t-start)/width rounds across a boundary.
func (r *lrung) edge(i int) Time { return r.start + r.width*Time(i) }

// bucketOf returns the canonical bucket index of t: the unique i with
// edge(i) <= t < edge(i+1), clamped to the rung.
func (r *lrung) bucketOf(t Time) int {
	f := (t - r.start) / r.width
	i := 0
	if f >= lqBuckets {
		i = lqBuckets - 1
	} else if f > 0 {
		i = int(f)
	}
	for i > 0 && t < r.edge(i) {
		i--
	}
	for i+1 < lqBuckets && t >= r.edge(i+1) {
		i++
	}
	return i
}

// add appends e to its canonical bucket. The caller has checked that e
// lies in the rung's remaining (unconsumed) range, so the bucket it
// lands in has not been materialized yet.
func (r *lrung) add(st *evStore, e event) {
	b := r.bucketOf(e.t)
	r.bkts[b] = st.add(r.bkts[b], e)
	r.occ |= 1 << b
	r.n++
}

// spread bulk-distributes evs into a fresh rung's buckets: one pass bins,
// then each touched bucket draws one slab that fits its count, then events
// are placed — no growth while placing.
func (q *ladderQueue) spread(r *lrung, evs []event) {
	st := q.st
	if cap(st.idxBuf) < len(evs) {
		st.idxBuf = make([]uint8, 1<<bits.Len(uint(len(evs)-1)))
	}
	idx := st.idxBuf[:len(evs)]
	var cnt [lqBuckets]int32
	for i := range evs {
		b := r.bucketOf(evs[i].t)
		idx[i] = uint8(b)
		cnt[b]++
	}
	for b, c := range cnt {
		if c > 0 {
			r.bkts[b] = st.get(int(c))
			r.occ |= 1 << b
		}
	}
	for i := range evs {
		b := idx[i]
		r.bkts[b] = append(r.bkts[b], evs[i])
	}
	r.n += len(evs)
}

func (q *ladderQueue) init(st *evStore) {
	q.st = st
	q.frontEnd = math.Inf(1)
}

// reset empties the queue, its slabs and rungs back to the store, dropping
// whatever dead entries are left. Where the partition bounds stood does not
// matter to an empty queue: pop order depends on (t, seq) alone.
func (q *ladderQueue) reset() {
	st := q.st
	st.put(q.front)
	st.put(q.tail)
	q.front, q.fh, q.tail, q.n, q.dead = nil, 0, nil, 0, 0
	for i, r := range q.rungs {
		for ; r.occ != 0; r.occ &= r.occ - 1 {
			b := bits.TrailingZeros32(r.occ)
			st.put(r.bkts[b])
			r.bkts[b] = nil
		}
		st.spare = append(st.spare, r)
		q.rungs[i] = nil
	}
	q.rungs = q.rungs[:0]
	q.frontEnd = math.Inf(1)
}

// len is the number of live events queued.
func (q *ladderQueue) len() int { return q.n - q.dead }

// dropDead removes the dead entries from evs in place, recycles their
// payload slots and returns the live rest. It runs on every bucket and tail
// about to become an epoch or a rung, so a dead entry costs its push, its
// stay in one bucket and one check.
func (q *ladderQueue) dropDead(evs []event) []event {
	if q.dead == 0 {
		return evs
	}
	live := evs[:0]
	for _, e := range evs {
		if e.proc == nil && q.st.pay[e.slot].dead() {
			q.st.payFree = append(q.st.payFree, e.slot)
			q.n--
			q.dead--
			continue
		}
		live = append(live, e)
	}
	return live
}

// push inserts e, deciding its tier by the nested range invariant.
func (q *ladderQueue) push(e event) {
	q.n++
	if e.t < q.frontEnd {
		q.pushFront(e)
		return
	}
	for i := len(q.rungs) - 1; i >= 0; i-- {
		r := q.rungs[i]
		if e.t < r.end {
			r.add(q.st, e)
			return
		}
	}
	q.tail = q.st.add(q.tail, e)
}

// pushFront inserts e into the sorted front at its (t, seq) position. The
// live window [fh, len) slides through its slab as pops consume the head;
// when it reaches the end makeFrontRoom moves it back to the start.
func (q *ladderQueue) pushFront(e event) {
	if q.fh == len(q.front) {
		if cap(q.front) == 0 {
			q.front = q.st.get(1)
		}
		q.front, q.fh = q.front[:1], 0
		q.front[0] = e
		return
	}
	if len(q.front)-q.fh >= lqFrontCap && q.spillFront() {
		// The front became a rung; re-route through the normal tiers.
		q.n--
		q.push(e)
		return
	}
	if len(q.front) == cap(q.front) {
		q.makeFrontRoom()
	}
	// Binary search for the first element after e.
	lo, hi := q.fh, len(q.front)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.front[mid].before(&e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.front = q.front[:len(q.front)+1]
	copy(q.front[lo+1:], q.front[lo:len(q.front)-1])
	q.front[lo] = e
}

// makeFrontRoom frees a place at the end of a full front slab: the live
// window moves back to the start when at least half of the slab is
// consumed space, otherwise the slab doubles.
func (q *ladderQueue) makeFrontRoom() {
	if 2*q.fh >= len(q.front) {
		q.front = q.front[:copy(q.front, q.front[q.fh:])]
		q.fh = 0
		return
	}
	q.front = q.st.grow(q.front)
}

// spillFront converts the live front into a fresh deepest rung so sorted
// insertion never degenerates past lqFrontCap. Reports false when the
// front cannot be subdivided (zero time span or rung depth exhausted).
func (q *ladderQueue) spillFront() bool {
	if len(q.rungs) >= lqMaxRungs {
		return false
	}
	live := q.front[q.fh:]
	start, max := live[0].t, live[len(live)-1].t
	end := q.frontEnd
	if math.IsInf(end, 1) {
		// No outer tier bounds the front; close the rung just above its
		// current maximum. Later events go to the tail, as usual.
		end = math.Nextafter(max, math.Inf(1))
	}
	r := q.newRung(start, end)
	if r == nil {
		return false
	}
	q.spread(r, live)
	q.front, q.fh = q.front[:0], 0
	q.rungs = append(q.rungs, r)
	q.frontEnd = start
	return true
}

// newRung returns a recycled (or fresh) rung over [start, end), or nil
// when the interval is too narrow to subdivide.
func (q *ladderQueue) newRung(start, end Time) *lrung {
	width := (end - start) / lqBuckets
	if !(width > 0) {
		return nil
	}
	var r *lrung
	if sp := q.st.spare; len(sp) > 0 {
		r = sp[len(sp)-1]
		q.st.spare = sp[:len(sp)-1]
	} else {
		r = new(lrung)
	}
	r.start, r.width, r.end, r.n, r.occ = start, width, end, 0, 0
	return r
}

// pop removes and returns the minimum live event, dropping the dead entries
// before it; the queue holds a live event. It may materialize the next
// epoch into the front (amortized against pops). Consumed entries are left
// in place until their slab is reused: an event holds no payload — only a
// *Proc (alive via Kernel.procs regardless) or a payload-table slot index —
// so stale copies retain nothing the GC could free while the kernel lives,
// and the store scrubs them before it outlives the kernel.
func (q *ladderQueue) pop() event {
	for {
		if q.fh == len(q.front) {
			q.ensureFront()
		}
		e := q.front[q.fh]
		q.fh++
		q.n--
		if q.dead == 0 || e.proc != nil || !q.st.pay[e.slot].dead() {
			return e
		}
		q.st.payFree = append(q.st.payFree, e.slot)
		q.dead--
	}
}

// ensureFront refills the sorted front from the deeper tiers until it is
// nonempty; the queue holds a live event. The work is in nextEpoch and
// convertTail: this loop runs at every pop of an exhausted front and keeps
// no temporaries.
func (q *ladderQueue) ensureFront() {
	for q.fh == len(q.front) {
		if len(q.rungs) > 0 {
			q.nextEpoch()
		} else {
			q.convertTail()
		}
	}
}

// nextEpoch takes one step on the deepest rung: retires it when empty,
// spreads its next bucket into a child rung when oversized, or else makes
// that bucket the front.
func (q *ladderQueue) nextEpoch() {
	d := len(q.rungs) - 1
	r := q.rungs[d]
	if r.n == 0 {
		q.st.spare = append(q.st.spare, r)
		q.rungs[d] = nil
		q.rungs = q.rungs[:d]
		return
	}
	c := bits.TrailingZeros32(r.occ)
	r.occ &^= 1 << c
	b := r.bkts[c]
	r.bkts[c] = nil
	r.n -= len(b)
	b = q.dropDead(b)
	bEnd := r.edge(c + 1)
	if c == lqBuckets-1 {
		bEnd = r.end
	}
	if len(b) > lqSpawn && len(q.rungs) < lqMaxRungs {
		if child := q.newRung(r.edge(c), bEnd); child != nil {
			q.spread(child, b)
			q.st.put(b)
			q.rungs = append(q.rungs, child)
			return
		}
	}
	// This bucket is the next epoch: sort it in place and make its slab
	// the front, no copying; the consumed front's slab goes back to the
	// store.
	q.sortEpoch(b)
	q.st.put(q.front)
	q.front, q.fh = b, 0
	q.frontEnd = bEnd
}

// convertTail turns the unsorted tail into a fresh rung 0 — or, when it
// is small or spans no time range, directly into the sorted front.
func (q *ladderQueue) convertTail() {
	q.tail = q.dropDead(q.tail) // keeps the live event the queue holds
	min, max := q.tail[0].t, q.tail[0].t
	for _, e := range q.tail[1:] {
		if e.t < min {
			min = e.t
		}
		if e.t > max {
			max = e.t
		}
	}
	// A tail beyond the front cap becomes a rung, closed just above max
	// so the maximum's bucket is half-open like every other; new arrivals
	// beyond it re-enter the tail. Smaller tails (a near-empty queue)
	// skip the rung machinery and become the sorted front directly —
	// should the queue then grow while frontEnd sits past every event in
	// play, the spill cap converts the front into a rung before sorted
	// insertion degenerates.
	if len(q.tail) > lqFrontCap {
		if r := q.newRung(min, math.Nextafter(max, math.Inf(1))); r != nil {
			q.spread(r, q.tail)
			q.st.put(q.tail)
			q.tail = nil
			q.rungs = append(q.rungs, r)
			q.frontEnd = min
			return
		}
	}
	// Small tail (or zero time span): the whole tail is one epoch, its
	// slab the new front without copying.
	q.sortEpoch(q.tail)
	q.st.put(q.front)
	q.front, q.fh = q.tail, 0
	q.tail = nil
	q.frontEnd = math.Nextafter(max, math.Inf(1))
}

// sortEpoch sorts one epoch by strict (t, seq) order. Small epochs — the
// common case at GCel event densities — take the insertion fast path with
// no further dispatch. Larger epochs run a bottom-up merge sort whose
// scratch slab is kept on the store and reused across epoch
// materializations, so the ~5% epoch-sort share of a run costs no
// per-epoch allocation and each merge pass is a sequential scan (with an
// already-ordered shortcut) instead of the random exchanges of the
// previous quicksort. seq values are unique, so the order is total and
// stability is irrelevant.
func (q *ladderQueue) sortEpoch(a []event) {
	n := len(a)
	if n <= lqSmallEpoch {
		insertionSortEvents(a)
		return
	}
	for lo := 0; lo < n; lo += lqSmallEpoch {
		hi := lo + lqSmallEpoch
		if hi > n {
			hi = n
		}
		insertionSortEvents(a[lo:hi])
	}
	st := q.st
	if cap(st.sortBuf) < n {
		st.put(st.sortBuf)
		st.sortBuf = st.get(n)
	}
	buf := st.sortBuf[:n]
	src, dst := a, buf
	for width := lqSmallEpoch; width < n; width <<= 1 {
		for lo := 0; lo < n; lo += width << 1 {
			mid, hi := lo+width, lo+(width<<1)
			if mid >= n {
				copy(dst[lo:n], src[lo:n])
				break
			}
			if hi > n {
				hi = n
			}
			mergeEvents(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// insertionSortEvents is the small-epoch fast path: plain binary-free
// insertion, optimal for the short, mostly-ordered runs bucket appends
// produce.
func insertionSortEvents(a []event) {
	for i := 1; i < len(a); i++ {
		e := a[i]
		j := i - 1
		for j >= 0 && e.before(&a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = e
	}
}

// mergeEvents merges the sorted runs a and b into dst
// (len(dst) == len(a)+len(b)). Runs that are already in order — frequent,
// since bucket contents arrive in near-schedule order — reduce to two
// copies.
func mergeEvents(dst, a, b []event) {
	if len(b) == 0 || !b[0].before(&a[len(a)-1]) {
		copy(dst, a)
		copy(dst[len(a):], b)
		return
	}
	i, j, o := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].before(&a[i]) {
			dst[o] = b[j]
			j++
		} else {
			dst[o] = a[i]
			i++
		}
		o++
	}
	copy(dst[o:], a[i:])
	copy(dst[o+len(a)-i:], b[j:])
}
