package mesh

import "diva/internal/sim"

// nodeInbox queues KindInbox messages per tag until a process receives
// them. Each (node, tag) stream is FIFO.
type nodeInbox struct {
	queues  map[int][]*Msg
	waiters map[int][]*sim.Future
}

func (ib *nodeInbox) init() {
	if ib.queues == nil {
		ib.queues = make(map[int][]*Msg)
		ib.waiters = make(map[int][]*sim.Future)
	}
}

func (nw *Network) deliverInbox(m *Msg) {
	// Inbox messages outlive their delivery (they wait in the queue until a
	// process Recvs them), so they must never return to the free list.
	m.pooled = false
	ib := &nw.inboxes[m.Dst]
	ib.init()
	if ws := ib.waiters[m.Tag]; len(ws) > 0 {
		ib.waiters[m.Tag] = ws[1:]
		ws[0].Complete(nw.K, m)
		return
	}
	ib.queues[m.Tag] = append(ib.queues[m.Tag], m)
}

// Recv blocks process p until a KindInbox message with the given tag
// arrives at node, and returns it. Messages with equal tags are received in
// arrival order; concurrent receivers on one tag are served FIFO.
func (nw *Network) Recv(p *sim.Proc, node, tag int) *Msg {
	ib := &nw.inboxes[node]
	ib.init()
	if q := ib.queues[tag]; len(q) > 0 {
		ib.queues[tag] = q[1:]
		return q[0]
	}
	f := sim.NewFuture()
	ib.waiters[tag] = append(ib.waiters[tag], f)
	return f.Await(p).(*Msg)
}

// TryRecv returns a queued message with the given tag, or nil. It never
// blocks.
func (nw *Network) TryRecv(node, tag int) *Msg {
	ib := &nw.inboxes[node]
	ib.init()
	if q := ib.queues[tag]; len(q) > 0 {
		ib.queues[tag] = q[1:]
		return q[0]
	}
	return nil
}
