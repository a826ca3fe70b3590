package mesh

import "diva/internal/sim"

// The inbox is the receive side of the hand-optimized message passing
// programs. A KindInbox message is copied by value into its destination's
// queue at delivery — or straight into a waiting receiver — and the sent
// message is then recycled like any other, so a send → deliver → Recv
// cycle allocates nothing once the network's storage has grown: queues and
// receiver records are carved from chunks and reused, never freed. A
// network that never delivers an inbox message carves neither.

// inboxStore is a network's inbox: one nodeInbox per node, and the chunks
// their queues and receiver records are carved from.
type inboxStore struct {
	nodes     []nodeInbox
	queues    carver[inboxQueue]
	receivers carver[receiver]
	free      *receiver // receivers not waiting, linked through next
}

// nodeInbox is one node's inbox. Each (node, tag) stream is FIFO: the queue
// holds every tag in arrival order and a receive takes the first message
// with its tag. Blocked receivers wait in arrival order.
type nodeInbox struct {
	q  *inboxQueue // nil until the node's first queued message
	rx *receiver   // blocked receivers, oldest first, linked through next
}

// inboxQueue is a node's queue of delivered, not yet received messages.
type inboxQueue struct {
	msgs   []Msg // all tags, arrival order; backed by inline until it outgrows it
	inline [4]Msg
}

// receiver is the record a process waits on in Recv. A blocked process
// holds exactly one, taken from the free list for the wait and handed back
// after it; its address is stable (records are carved from chunks).
type receiver struct {
	f    sim.Future
	tag  int
	msg  Msg // the delivered message, copied in before f completes
	next *receiver
}

// carver hands out records carved from chunks that double from msgChunkMin
// to msgChunkMax records, as msgPool carves messages (msgPool spells the
// same lines out: through the generic call its get would not inline).
type carver[T any] struct {
	chunk []T // unused tail of the newest chunk
	grow  int // length of the newest chunk
}

func (c *carver[T]) get() *T {
	if len(c.chunk) == 0 {
		c.grow = min(max(msgChunkMin, 2*c.grow), msgChunkMax)
		c.chunk = make([]T, c.grow)
	}
	x := &c.chunk[0]
	c.chunk = c.chunk[1:]
	return x
}

// queue returns node's queue, carving it on first use.
func (s *inboxStore) queue(node int) *inboxQueue {
	ib := &s.nodes[node]
	if ib.q == nil {
		ib.q = s.queues.get()
		ib.q.msgs = ib.q.inline[:0]
	}
	return ib.q
}

// take removes and returns node's oldest queued message with the tag.
func (s *inboxStore) take(node, tag int) (Msg, bool) {
	q := s.nodes[node].q
	if q == nil {
		return Msg{}, false
	}
	for i := range q.msgs {
		if q.msgs[i].Tag == tag {
			m := q.msgs[i]
			n := len(q.msgs) - 1
			copy(q.msgs[i:], q.msgs[i+1:])
			q.msgs[n] = Msg{}
			q.msgs = q.msgs[:n]
			return m, true
		}
	}
	return Msg{}, false
}

// deliverInbox hands m to the node's oldest receiver waiting on its tag, or
// queues a copy. Either way m itself is recycled when the handler returns.
func (nw *Network) deliverInbox(m *Msg) {
	s := &nw.inbox
	for prev := &s.nodes[m.Dst].rx; *prev != nil; prev = &(*prev).next {
		if r := *prev; r.tag == m.Tag {
			*prev = r.next
			r.msg = *m
			r.msg.pooled = false
			r.f.Complete(nw.K, nil)
			return
		}
	}
	q := s.queue(m.Dst)
	q.msgs = append(q.msgs, *m)
	q.msgs[len(q.msgs)-1].pooled = false
}

// getReceiver returns a receiver record from the free list, or carved: from
// the shelf's storage at the network's first need, else from the newest
// chunk.
func (nw *Network) getReceiver() *receiver {
	s := &nw.inbox
	if s.free == nil && len(s.receivers.chunk) == 0 {
		if !nw.own {
			nw.adopt()
		}
		if s.free == nil && len(s.receivers.chunk) == 0 {
			nw.misses++
		} else {
			nw.hits++
		}
	}
	if r := s.free; r != nil {
		s.free = r.next
		return r
	}
	return s.receivers.get()
}

// Recv blocks process p until a KindInbox message with the given tag
// arrives at node, and returns a copy of it. Messages with equal tags are
// received in arrival order; concurrent receivers on one tag are served
// FIFO.
func (nw *Network) Recv(p *sim.Proc, node, tag int) Msg {
	s := &nw.inbox
	if m, ok := s.take(node, tag); ok {
		return m
	}
	r := nw.getReceiver()
	*r = receiver{tag: tag}
	tail := &s.nodes[node].rx
	for *tail != nil {
		tail = &(*tail).next
	}
	*tail = r
	r.f.Await(p)
	m := r.msg
	*r = receiver{next: s.free}
	s.free = r
	return m
}
