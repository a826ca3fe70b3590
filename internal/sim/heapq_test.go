package sim

// heapQueue is a 4-ary min-heap event queue: the reference the ladder
// queue (ladder.go) and the kernel's execution order are differentially
// tested against. It pops in strict (t, seq) order by
// construction; see the fuzz and property tests in ladder_test.go and
// order_test.go.
//
// Entries live unboxed in a plain []event backing array with inlined
// sift-up/sift-down (a 4-ary heap halves the tree depth vs. a binary heap
// and keeps the four children of a node on one cache line pair).
type heapQueue struct {
	h []event
}

func (q *heapQueue) len() int { return len(q.h) }

// push inserts e with inlined sift-up.
func (q *heapQueue) push(e event) {
	h := append(q.h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.h = h
}

// pop removes and returns the minimum event with inlined sift-down (hole
// method: move the last element down instead of repeated swaps).
func (q *heapQueue) pop() event {
	h := q.h
	top := h[0]
	last := len(h) - 1
	e := h[last]
	h = h[:last]
	q.h = h
	if last > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= last {
				break
			}
			m := c
			end := c + 4
			if end > last {
				end = last
			}
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&e) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = e
	}
	return top
}
