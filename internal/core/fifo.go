package core

// FIFO is a queue that keeps its backing array across hand-offs: Pop
// advances a head index instead of re-slicing the head away (which gives up
// one slot of capacity per dequeue, so a queue that stays contended
// reallocates forever), the index resets when the queue drains, and a full
// backing array whose dead head slots are at least half of it is compacted
// instead of grown (amortized O(1), capacity bounded by the peak length).
// It serves the per-variable transaction queue and the fixed home
// strategy's lock queue. The zero value is an empty queue.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Items returns the queued items in FIFO order; the slice is only valid
// until the next Push or Pop.
func (q *FIFO[T]) Items() []T { return q.items[q.head:] }

// Push appends x.
func (q *FIFO[T]) Push(x T) {
	if q.head > 0 && len(q.items) == cap(q.items) && q.head >= len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, x)
}

// Front returns the oldest item; the queue must not be empty.
func (q *FIFO[T]) Front() T { return q.items[q.head] }

// Pop removes the oldest item; the queue must not be empty.
func (q *FIFO[T]) Pop() {
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
}
